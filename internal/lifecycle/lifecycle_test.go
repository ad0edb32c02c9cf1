package lifecycle

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
)

// Shared fixtures, trained once per test binary: a deliberately weak
// "live" model (small training slice) and a strong one warm-started
// from it over a much larger slice, so swap tests have two models that
// parse differently. The weak model is built separately so benchmarks
// (which swap only the weak model) skip the expensive retrain.
var (
	corpusOnce sync.Once
	fixCorpus  []*labels.LabeledRecord
	weakOnce   sync.Once
	fixWeak    *core.Parser
	weakErr    error
	strongOnce sync.Once
	fixStrong  *core.Parser
	strongErr  error
)

func testCorpus(t testing.TB) []*labels.LabeledRecord {
	t.Helper()
	corpusOnce.Do(func() {
		fixCorpus = synth.GenerateLabeled(synth.Config{N: 420, Seed: 11})
	})
	return fixCorpus
}

func weakParser(t testing.TB) *core.Parser {
	t.Helper()
	recs := testCorpus(t)
	weakOnce.Do(func() {
		fixWeak, _, weakErr = core.Train(recs[:40], core.DefaultConfig())
	})
	if weakErr != nil {
		t.Fatal(weakErr)
	}
	return fixWeak
}

func fixtures(t testing.TB) ([]*labels.LabeledRecord, *core.Parser, *core.Parser) {
	t.Helper()
	recs := testCorpus(t)
	weak := weakParser(t)
	strongOnce.Do(func() {
		fixStrong, _, strongErr = core.Retrain(weak, recs[:300], core.DefaultConfig())
	})
	if strongErr != nil {
		t.Fatal(strongErr)
	}
	return recs, weak, fixStrong
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateServing:      "serving",
		StateDriftFlagged: "drift-flagged",
		State(99):         "state(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("State(%d).String() = %q, want %q", s, got, w)
		}
	}
}

func TestManagerStampsVersion(t *testing.T) {
	recs, weak, _ := fixtures(t)
	m := New(weak, Options{})
	snap := m.Current()
	if snap.Seq != 1 || snap.Version != "m1" {
		t.Fatalf("initial snapshot = seq %d version %q, want 1/m1", snap.Seq, snap.Version)
	}
	if got := m.State(); got != StateServing {
		t.Fatalf("initial state = %v, want serving", got)
	}
	rec := m.Parse(recs[0].Text)
	if rec.ModelVersion != "m1" {
		t.Fatalf("ModelVersion = %q, want m1", rec.ModelVersion)
	}
}

func TestAttachAndSwapInvalidatesCache(t *testing.T) {
	recs, weak, strong := fixtures(t)
	m := New(weak, Options{})
	ps := serve.New(weak, serve.Options{Workers: 2})
	defer ps.Close()
	m.Attach(ps)

	ctx := context.Background()
	text := recs[0].Text
	rec, err := ps.ParseWait(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != "m1" {
		t.Fatalf("pre-swap ModelVersion = %q, want m1", rec.ModelVersion)
	}
	// Cache hit still carries the stamp.
	rec, err = ps.ParseWait(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != "m1" {
		t.Fatalf("cached ModelVersion = %q, want m1", rec.ModelVersion)
	}

	snap := m.Swap(strong, store.ModelInfo{}, "")
	if snap.Seq != 2 || snap.Version != "m2" {
		t.Fatalf("swap snapshot = seq %d version %q, want 2/m2", snap.Seq, snap.Version)
	}
	// The same text must re-parse under the new model — a stale cache
	// hit would still say m1.
	rec, err = ps.ParseWait(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != "m2" {
		t.Fatalf("post-swap ModelVersion = %q, want m2 (stale cache?)", rec.ModelVersion)
	}
	if m.Metrics() == nil {
		t.Fatal("Metrics() returned nil registry")
	}
}

func TestNewFromFileAndReload(t *testing.T) {
	recs, weak, strong := fixtures(t)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.model")
	pathB := filepath.Join(dir, "b.model")
	infoA, err := store.SaveModel(weak, pathA)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := store.SaveModel(strong, pathB)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewFromFile(pathA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Current()
	if want := infoA.ID(); snap.Version != want {
		t.Fatalf("version = %q, want %q", snap.Version, want)
	}
	if snap.Info != infoA || snap.Path != pathA {
		t.Fatalf("snapshot identity = %+v/%q, want %+v/%q", snap.Info, snap.Path, infoA, pathA)
	}
	if rec := m.Parse(recs[0].Text); rec.ModelVersion != snap.Version {
		t.Fatalf("stamp = %q, want %q", rec.ModelVersion, snap.Version)
	}

	// Operator reload swaps to the new artifact.
	snap2, err := m.ReloadFromFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if want := infoB.ID(); snap2.Version != want {
		t.Fatalf("reloaded version = %q, want %q", snap2.Version, want)
	}
	if m.Current() != snap2 {
		t.Fatal("Current() is not the reloaded snapshot")
	}

	// A corrupt artifact must be rejected with the old model untouched.
	bad := filepath.Join(dir, "bad.model")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReloadFromFile(bad); err == nil {
		t.Fatal("reload of junk artifact succeeded")
	}
	if m.Current() != snap2 {
		t.Fatal("failed reload replaced the live snapshot")
	}
}

// TestReplacedModelIsCollected: a manager that instruments models into
// a caller's registry must not keep the models it replaced reachable,
// or every reload leaks one model for the life of the daemon.
func TestReplacedModelIsCollected(t *testing.T) {
	_, weak, strong := fixtures(t)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.model")
	pathB := filepath.Join(dir, "b.model")
	if _, err := store.SaveModel(weak, pathA); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveModel(strong, pathB); err != nil {
		t.Fatal(err)
	}
	m, err := NewFromFile(pathA, Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(m.Current().Parser, func(*core.Parser) { close(collected) })
	if _, err := m.ReloadFromFile(pathB); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("replaced parser still reachable after reload")
			}
		}
	}
	runtime.KeepAlive(m)
}

// TestHotSwapUnderLoad is the end-to-end acceptance test: goroutines
// hammer a serving layer while the manager hot-reloads models
// underneath them. Every response must be attributable to exactly one
// known model version, and immediately after each swap a fresh request
// must be served by exactly the just-promoted version (no stale cache
// hits, no torn model state). Run with -race to check the memory model
// side.
func TestHotSwapUnderLoad(t *testing.T) {
	recs, weak, strong := fixtures(t)
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.model")
	pathB := filepath.Join(dir, "b.model")
	infoA, err := store.SaveModel(weak, pathA)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := store.SaveModel(strong, pathB)
	if err != nil {
		t.Fatal(err)
	}

	const swaps = 6
	// Stamps are the artifacts' own identities: pathA first, then
	// alternating reloads starting with pathB.
	valid := map[string]bool{infoA.ID(): true, infoB.ID(): true}

	m, err := NewFromFile(pathA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New(weak, serve.Options{Workers: 4, CacheCapacity: 256})
	defer ps.Close()
	m.Attach(ps)

	texts := make([]string, 8)
	for i := range texts {
		texts[i] = recs[i].Text
	}

	ctx := context.Background()
	stop := make(chan struct{})
	const hammers = 4
	seen := make([]map[string]bool, hammers)
	errs := make([]error, hammers)
	ready := make(chan struct{}, hammers)
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := map[string]bool{}
			seen[g] = local
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec, err := ps.ParseWait(ctx, texts[(i+g)%len(texts)])
				if err != nil {
					errs[g] = err
					return
				}
				local[rec.ModelVersion] = true
				if i == 0 {
					ready <- struct{}{}
				}
			}
		}(g)
	}
	// On GOMAXPROCS=1 the swap loop below can finish before the hammer
	// goroutines are ever scheduled; don't start swapping until every
	// hammer has a first parse in hand, so the load genuinely overlaps
	// the swaps.
	for g := 0; g < hammers; g++ {
		<-ready
	}

	for i := 1; i <= swaps; i++ {
		path := pathB
		if i%2 == 0 {
			path = pathA
		}
		snap, err := m.ReloadFromFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A request admitted after the swap must be served by exactly
		// the new version: the parse function and cache generation
		// moved together, so neither a stale cached result nor a parse
		// by the old model can answer it.
		rec, err := ps.ParseWait(ctx, texts[i%len(texts)])
		if err != nil {
			t.Fatal(err)
		}
		if rec.ModelVersion != snap.Version {
			t.Fatalf("after swap %d: got version %q, want %q", i, rec.ModelVersion, snap.Version)
		}
	}
	close(stop)
	wg.Wait()

	total := 0
	for g := 0; g < hammers; g++ {
		if errs[g] != nil {
			t.Fatalf("hammer %d: %v", g, errs[g])
		}
		for v := range seen[g] {
			total++
			if v == "" {
				t.Fatal("response with empty ModelVersion: unattributable parse")
			}
			if !valid[v] {
				t.Fatalf("response stamped with unknown version %q (torn swap?)", v)
			}
		}
	}
	if total == 0 {
		t.Fatal("hammers observed no versions at all")
	}
	if got := m.Metrics().Counter("lifecycle.swaps").Value(); got != swaps {
		t.Fatalf("lifecycle.swaps = %d, want %d", got, swaps)
	}
	if got := m.Metrics().Counter("lifecycle.reloads").Value(); got != swaps {
		t.Fatalf("lifecycle.reloads = %d, want %d", got, swaps)
	}
}

// TestManagerDriftLifecycle drives the sentinel through the manager's
// observe path with synthetic observations: flag on sustained low
// confidence, once per transition, then clear the flag when confidence
// recovers.
func TestManagerDriftLifecycle(t *testing.T) {
	_, weak, _ := fixtures(t)
	m := New(weak, Options{
		SampleEvery: 1, Window: 8, MinWindow: 4,
		ConfidenceFloor: 0.5,
	})
	rec := &core.ParsedRecord{
		Registrar: "Example Registrar",
		Blocks:    []labels.Block{labels.Registrar, labels.Null},
	}
	for i := 0; i < 8; i++ {
		m.observe(m.Current(), rec, "low confidence text", 0.1)
	}
	if got := m.State(); got != StateDriftFlagged {
		t.Fatalf("state = %v, want drift-flagged", got)
	}
	if got := m.Flagged(); len(got) != 1 || got[0] != "Example Registrar" {
		t.Fatalf("Flagged() = %v", got)
	}
	if got := m.Metrics().Counter("lifecycle.drift.events").Value(); got != 1 {
		t.Fatalf("drift.events = %d, want 1", got)
	}

	// Recovery: enough healthy observations flush the window.
	for i := 0; i < 16; i++ {
		m.observe(m.Current(), rec, "healthy text", 0.99)
	}
	if got := m.State(); got != StateServing {
		t.Fatalf("state after recovery = %v, want serving", got)
	}
	if got := m.Flagged(); len(got) != 0 {
		t.Fatalf("Flagged() after recovery = %v, want empty", got)
	}

	// A record the model could not attribute to a registrar pools
	// under the synthetic key.
	anon := &core.ParsedRecord{Blocks: []labels.Block{labels.Null}}
	for i := 0; i < 8; i++ {
		m.observe(m.Current(), anon, "anon text", 0.1)
	}
	if got := m.Flagged(); len(got) != 1 || got[0] != "(unattributed)" {
		t.Fatalf("Flagged() = %v, want [(unattributed)]", got)
	}
}

// TestSwapResetsDrift: a swap gives the new model fresh drift windows.
// The state returns to serving with no flags and a zero flagged gauge,
// and a parse by the replaced model that lands after the swap cannot
// flag its registrar again.
func TestSwapResetsDrift(t *testing.T) {
	_, weak, strong := fixtures(t)
	m := New(weak, Options{
		SampleEvery: 1, Window: 8, MinWindow: 4,
		ConfidenceFloor: 0.5,
	})
	rec := &core.ParsedRecord{
		Registrar: "Example Registrar",
		Blocks:    []labels.Block{labels.Registrar, labels.Null},
	}
	old := m.Current()
	for i := 0; i < 8; i++ {
		m.observe(old, rec, "low confidence text", 0.1)
	}
	if got := m.State(); got != StateDriftFlagged {
		t.Fatalf("state before swap = %v, want drift-flagged", got)
	}

	m.Swap(strong, store.ModelInfo{}, "")
	flagged := m.Metrics().Gauge("lifecycle.drift.flagged")
	if got := m.State(); got != StateServing {
		t.Fatalf("state after swap = %v, want serving", got)
	}
	if got := m.Flagged(); len(got) != 0 {
		t.Fatalf("Flagged() after swap = %v, want none", got)
	}
	if got := flagged.Value(); got != 0 {
		t.Fatalf("lifecycle.drift.flagged after swap = %d, want 0", got)
	}

	// In-flight parses by the replaced model land after the swap.
	for i := 0; i < 8; i++ {
		m.observe(old, rec, "low confidence text", 0.1)
	}
	if got, fs := m.State(), m.Flagged(); got != StateServing || len(fs) != 0 {
		t.Fatalf("after stale observations: state %v, flagged %v; want serving, none", got, fs)
	}

	// The new model's own windows still flag.
	for i := 0; i < 8; i++ {
		m.observe(m.Current(), rec, "low confidence text", 0.1)
	}
	if got := m.State(); got != StateDriftFlagged {
		t.Fatalf("state after the new model drifts = %v, want drift-flagged", got)
	}
	if got := flagged.Value(); got != 1 {
		t.Fatalf("lifecycle.drift.flagged = %d, want 1", got)
	}
}

// TestDriftStateUnderSwaps: observations from several goroutines, some
// by replaced snapshots, race repeated swaps. Once they stop, the state
// and the flagged gauge agree with the flagged registrars.
func TestDriftStateUnderSwaps(t *testing.T) {
	_, weak, strong := fixtures(t)
	m := New(weak, Options{
		SampleEvery: 1, Window: 8, MinWindow: 4,
		ConfidenceFloor: 0.5,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := &core.ParsedRecord{
				Registrar: fmt.Sprintf("Registrar %d", g%3),
				Blocks:    []labels.Block{labels.Registrar, labels.Null},
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Current()
				if i%5 == 0 {
					runtime.Gosched() // widen the window for a swap to replace snap
				}
				conf := 0.1
				if (i/8)%2 == 1 {
					conf = 0.99
				}
				m.observe(snap, rec, "text", conf)
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		p := weak
		if i%2 == 0 {
			p = strong
		}
		m.Swap(p, store.ModelInfo{}, "")
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	flagged := m.Flagged()
	if got := m.Metrics().Gauge("lifecycle.drift.flagged").Value(); got != int64(len(flagged)) {
		t.Errorf("lifecycle.drift.flagged = %d, but %d registrars are flagged (%v)", got, len(flagged), flagged)
	}
	if want := len(flagged) > 0; (m.State() == StateDriftFlagged) != want {
		t.Errorf("state %v with flagged registrars %v", m.State(), flagged)
	}
}
