package modelreg_test

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/modelreg"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
)

// TestPromotionUnderLoad is the registry's end-to-end acceptance test:
// a registry-backed manager serves parse traffic through the shared
// serving layer while an operator publishes a successor, walks it
// candidate → shadow → serving, and then rolls back. Under continuous
// load, every request must succeed and every parsed record must be
// stamped with exactly one known (family, version) identity; after the
// promote the displaced version must still verify on disk, and the
// rollback must bring it back live. Run under -race this also proves
// the pointer swap, journal append, and cache invalidation are clean.
func TestPromotionUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load test")
	}

	// Two models: v1 trained on a slice, v2 retrained on more data.
	recs := synth.GenerateLabeled(synth.Config{N: 160, Seed: 41})
	pA, _, err := core.Train(recs[:40], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pB, _, err := core.Retrain(pA, recs[:120], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	artA := filepath.Join(scratch, "a.wmdl")
	artB := filepath.Join(scratch, "b.wmdl")
	infoA, err := store.SaveModel(pA, artA)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := store.SaveModel(pB, artB)
	if err != nil {
		t.Fatal(err)
	}

	reg, err := modelreg.Open(t.TempDir(), modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const fam = "default"
	m1, err := reg.Publish(modelreg.PublishRequest{Family: fam, ArtifactPath: artA})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate(fam, m1.Version); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(fam, m1.Version); err != nil {
			t.Fatal(err)
		}
	}

	mgr, err := lifecycle.NewFromRegistry(reg, fam, lifecycle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New(mgr.Current().Parser, serve.Options{Workers: 4, CacheCapacity: 256})
	defer ps.Close()
	mgr.Attach(ps)

	v1 := mgr.Current().Version
	if v1 != infoA.ID() || mgr.Current().SemVer != m1.Version {
		t.Fatalf("serving %q (%s), want %q (%s)", v1, mgr.Current().SemVer, infoA.ID(), m1.Version)
	}

	// Load: workers hammer the serving layer with rotating texts for the
	// whole promotion story. Every response is counted by the version it
	// claims to have been parsed by; any error or unknown stamp fails.
	texts := make([]string, 0, len(recs))
	for _, r := range recs {
		texts = append(texts, r.Text)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		byStamp  = map[string]int{}
		failures []string
	)
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ctx.Err() == nil; i += workers {
				rec, err := ps.ParseWait(ctx, texts[i%len(texts)])
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, err.Error())
				case rec == nil:
					failures = append(failures, "nil record")
				default:
					byStamp[rec.ModelVersion]++
				}
				mu.Unlock()
			}
		}(w)
	}
	settle := func() { time.Sleep(20 * time.Millisecond) }
	settle()

	// Publish the successor and walk it through the state machine while
	// traffic flows; the daemon converges via ReloadServing after the
	// serving arrow, exactly as the SIGHUP / admin path does.
	m2, err := reg.Publish(modelreg.PublishRequest{
		Family: fam, Parent: m1.Version, ArtifactPath: artB,
		Provenance: modelreg.Provenance{Trainer: "e2e", CorpusPath: "/data/e2e.labeled"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate(fam, m2.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(fam, m2.Version); err != nil { // -> shadow
		t.Fatal(err)
	}
	if _, changed, err := mgr.ReloadServing(); err != nil || changed {
		t.Fatalf("shadow promote must not move serving: changed=%v err=%v", changed, err)
	}
	if _, err := reg.Promote(fam, m2.Version); err != nil { // -> serving
		t.Fatal(err)
	}
	snap, changed, err := mgr.ReloadServing()
	if err != nil || !changed {
		t.Fatalf("serving promote did not swap: changed=%v err=%v", changed, err)
	}
	v2 := snap.Version
	if v2 != infoB.ID() || snap.SemVer != m2.Version {
		t.Fatalf("post-promote serving %q (%s), want %q (%s)", v2, snap.SemVer, infoB.ID(), m2.Version)
	}
	settle()

	// Acceptance: the displaced serving version is still on disk and
	// passes a full verification while its successor serves.
	if _, err := reg.Verify(fam, m1.Version); err != nil {
		t.Fatalf("old serving version corrupted by promote: %v", err)
	}

	// Roll back under the same load; the daemon converges again.
	if err := reg.Rollback(fam, m1.Version); err != nil {
		t.Fatal(err)
	}
	snap, changed, err = mgr.ReloadServing()
	if err != nil || !changed {
		t.Fatalf("rollback did not swap: changed=%v err=%v", changed, err)
	}
	if snap.Version != v1 {
		t.Fatalf("rollback landed on %q, want %q", snap.Version, v1)
	}
	settle()
	cancel()
	wg.Wait()

	// Zero failed requests, and every response attributable to exactly
	// one of the two published identities.
	if len(failures) > 0 {
		t.Fatalf("%d failed requests under promotion load; first: %s", len(failures), failures[0])
	}
	total := 0
	for stamp, n := range byStamp {
		if stamp != v1 && stamp != v2 {
			t.Fatalf("response stamped with unknown identity %q (%d records)", stamp, n)
		}
		total += n
	}
	if total == 0 || byStamp[v1] == 0 {
		t.Fatalf("load produced no attributable traffic: %v", byStamp)
	}
	t.Logf("served %d records under promotion: %v", total, byStamp)

	// The journal tells the whole story in order.
	hist, err := reg.History(fam)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, e := range hist {
		events = append(events, e.Event+":"+e.Version)
	}
	want := []string{
		"candidate:1.0.0", "shadow:1.0.0", "serving:1.0.0",
		"candidate:1.1.0", "shadow:1.1.0", "serving:1.1.0",
		"rollback:1.0.0",
	}
	if strings.Join(events, " ") != strings.Join(want, " ") {
		t.Fatalf("journal = %v, want %v", events, want)
	}
}
