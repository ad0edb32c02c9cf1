package query

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/survey"
)

var (
	testRegistrars = []string{
		"GoDaddy.com, LLC", "eNom", "Tucows Domains Inc.", "HiChina Zhicheng",
		"Network Solutions", "1&1 Internet", "PDR Ltd.", "",
	}
	testCountries = []string{
		"United States", "China", "Germany", "United Kingdom", "Japan", "",
	}
)

// rareRegistrar appears in a handful of records only — the selective
// predicate the sidecar dictionaries should prune almost every segment for.
const rareRegistrar = "Sparse Registrations Pty"

// genRecord derives a deterministic pseudo-random record from rng.
func genRecord(i int, rng *rand.Rand) *store.Record {
	domain := "host" + strconv.Itoa(i) + ".example"
	year := 0
	if rng.Intn(10) > 0 { // ~10% unknown year
		year = 1996 + rng.Intn(20)
	}
	f := survey.Facts{
		Domain:      domain,
		Registrar:   testRegistrars[rng.Intn(len(testRegistrars))],
		Country:     testCountries[rng.Intn(len(testCountries))],
		CreatedYear: year,
		Privacy:     rng.Intn(7) == 0,
		Blacklisted: rng.Intn(13) == 0,
		Org:         "Org " + strconv.Itoa(rng.Intn(5)),
	}
	if f.Privacy {
		f.PrivacySvc = "WhoisGuard"
		f.Country = ""
	}
	return &store.Record{Domain: domain, Facts: f}
}

// buildTestStore writes n pseudo-random records across many small
// segments, salting in a few rareRegistrar rows, and optionally
// compresses the sealed segments so sidecar rows sit at index > 0 inside
// their frames.
func buildTestStore(tb testing.TB, dir string, n int, seed int64, compress bool) *store.Store {
	return buildTestStoreSized(tb, dir, n, seed, compress, 4<<10)
}

func buildTestStoreSized(tb testing.TB, dir string, n int, seed int64, compress bool, segmentBytes int64) *store.Store {
	tb.Helper()
	st, err := store.Open(dir, store.Options{
		SegmentBytes: segmentBytes,
		BlockRecords: 5,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rec := genRecord(i, rng)
		if i == n/2 || i == n-2 { // rare registrar: two rows, one segment-ish
			rec.Facts.Registrar = rareRegistrar
			rec.Facts.Country = "Australia"
			rec.Facts.CreatedYear = 2014
		}
		if err := st.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if compress {
		if _, err := st.CompressSealed(); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

func envInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// renderSurvey flattens every table the survey produces into one string,
// so two surveys can be compared byte for byte.
func renderSurvey(sv *survey.Survey) string {
	var b strings.Builder
	t3a, t3b := sv.Table3()
	b.WriteString(survey.RenderRows("Table 3 (all)", t3a))
	b.WriteString(survey.RenderRows("Table 3 (2014)", t3b))
	t5a, t5b := sv.Table5()
	b.WriteString(survey.RenderRows("Table 5 (all)", t5a))
	b.WriteString(survey.RenderRows("Table 5 (2014)", t5b))
	b.WriteString(survey.RenderRows("Table 6", sv.Table6()))
	b.WriteString(survey.RenderRows("Table 7", sv.Table7()))
	b.WriteString(survey.RenderRows("Table 8", sv.Table8()))
	b.WriteString(survey.RenderRows("Table 9", sv.Table9()))
	b.WriteString(survey.RenderHistogram("Figure 4a", sv.Figure4a()))
	b.WriteString(survey.RenderMixes("Figure 4b", sv.Figure4b(1995), survey.Figure4bLabels()))
	b.WriteString(survey.RenderRegistrarMixes("Figure 5", sv.Figure5([]string{"eNom", "HiChina", "GMO", "Melbourne"})))
	return b.String()
}

// differentialPreds is every predicate shape the planner supports.
func differentialPreds() []Pred {
	return []Pred{
		{},
		{Registrar: "eNom"},
		{Registrar: rareRegistrar},
		{Registrar: "No Such Registrar"},
		{Registrar: ""}, // empty = unset: matches all
		{Country: "China"},
		{Country: "Australia"},
		{Country: "Atlantis"},
		{Year: 2014, HasYear: true},
		{Year: 0, HasYear: true}, // unknown creation year
		{Year: 1890, HasYear: true},
		{Year: 2010, YearTo: 2014, HasYear: true},
		{Year: 2012, YearTo: 2012, HasYear: true}, // degenerate range
		{Year: 1890, YearTo: 1900, HasYear: true}, // empty range
		{Year: 1, YearTo: 9999, HasYear: true},    // everything with a year
		{Since: 2010},
		{Since: 2031},
		{Registrar: "eNom", Country: "United States"},
		{Registrar: rareRegistrar, Country: "Australia"},
		{Registrar: rareRegistrar, Country: "China"},
		{Country: "Germany", Year: 2005, HasYear: true},
		{Country: "Japan", Since: 2008},
		{Registrar: "Tucows Domains Inc.", Since: 2000, Country: "United Kingdom"},
		{Registrar: "PDR Ltd.", Country: "China", Year: 2012, HasYear: true, Since: 2011},
		{Registrar: "eNom", Year: 2008, YearTo: 2012, HasYear: true},
		{Country: "United States", Year: 2000, YearTo: 2010, HasYear: true, Since: 2005},
	}
}

// diffOne runs p through Scan, Survey and the brute-force reference and
// fails unless the matched record streams and the rendered surveys are
// byte-identical. It returns Scan's stats and Survey's.
func diffOne(t *testing.T, e *Engine, p Pred) (scan, surv Stats) {
	t.Helper()
	var got, want []string
	gotSv, wantSv := &survey.Survey{}, &survey.Survey{}
	scan, err := e.Scan(p, func(rec *store.Record) error {
		got = append(got, rec.Domain)
		gotSv.Add(rec.Facts)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan(%s): %v", p, err)
	}
	err = e.FullScan(p, func(rec *store.Record) error {
		want = append(want, rec.Domain)
		wantSv.Add(rec.Facts)
		return nil
	})
	if err != nil {
		t.Fatalf("FullScan(%s): %v", p, err)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("Scan(%s) diverged from full scan:\n planner %d rows\n reference %d rows", p, len(got), len(want))
	}
	wantTables := renderSurvey(wantSv)
	if renderSurvey(gotSv) != wantTables {
		t.Fatalf("Scan(%s): surveys render differently", p)
	}
	if scan.Matched != uint64(len(got)) {
		t.Fatalf("Scan(%s): stats.Matched = %d, emitted %d", p, scan.Matched, len(got))
	}
	sv, surv, err := e.Survey(p)
	if err != nil {
		t.Fatalf("Survey(%s): %v", p, err)
	}
	if tables := renderSurvey(sv); tables != wantTables {
		t.Fatalf("Survey(%s) diverged from the full-scan fold:\n got\n%s\nwant\n%s", p, tables, wantTables)
	}
	if surv.Matched != uint64(len(want)) || uint64(sv.Len()) != surv.Matched {
		t.Fatalf("Survey(%s): stats.Matched = %d, folded %d, want %d", p, surv.Matched, sv.Len(), len(want))
	}
	return scan, surv
}

// TestQueryDifferential is the CI gate: every supported predicate, over
// a plain and a compressed store, through both executors — byte-identical
// or fail. QUERYDIFF_N / QUERYDIFF_SEED widen the randomized corpus.
func TestQueryDifferential(t *testing.T) {
	n := int(envInt("QUERYDIFF_N", 900))
	seed := envInt("QUERYDIFF_SEED", 1)
	t.Logf("differential corpus: QUERYDIFF_N=%d QUERYDIFF_SEED=%d", n, seed)
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			st := buildTestStore(t, t.TempDir(), n, seed, compress)
			defer st.Close()
			e := New(st, Options{Metrics: obs.NewRegistry()})
			if _, err := e.BuildAll(); err != nil {
				t.Fatal(err)
			}
			scanned, surveyed := 0, 0
			for _, p := range differentialPreds() {
				scan, surv := diffOne(t, e, p)
				scanned += scan.FromSidecar
				surveyed += surv.FromSidecar
			}
			if scanned == 0 || surveyed == 0 {
				t.Fatalf("sidecars answered %d scans and %d surveys — the differential exercised nothing", scanned, surveyed)
			}
		})
	}
}

// corruptions are the sidecar failure modes the planner must absorb:
// identical answers, degraded plan.
var corruptions = []struct {
	name  string
	wreck func(t *testing.T, dir string, id uint64)
}{
	{"flipped-header", func(t *testing.T, dir string, id uint64) {
		flipByte(t, sidecarPath(dir, id), 7) // inside the fingerprint
	}},
	{"flipped-body", func(t *testing.T, dir string, id uint64) {
		flipByte(t, sidecarPath(dir, id), -20)
	}},
	{"truncated", func(t *testing.T, dir string, id uint64) {
		data, err := os.ReadFile(sidecarPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sidecarPath(dir, id), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"missing", func(t *testing.T, dir string, id uint64) {
		if err := os.Remove(sidecarPath(dir, id)); err != nil {
			t.Fatal(err)
		}
	}},
	{"stale-foreign", func(t *testing.T, dir string, id uint64) {
		// A sidecar copied from a different segment: valid envelope,
		// wrong identity.
		data, err := os.ReadFile(sidecarPath(dir, id+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sidecarPath(dir, id), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
}

func flipByte(t *testing.T, path string, pos int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pos < 0 {
		pos = len(data) + pos
	}
	data[pos] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQueryDifferentialCorruptSidecars: a NoRebuild engine over wrecked
// sidecars must return exactly the full-scan answer and report the
// degradation in its stats — never a wrong row, never a crash.
func TestQueryDifferentialCorruptSidecars(t *testing.T) {
	n := int(envInt("QUERYDIFF_N", 900))
	seed := envInt("QUERYDIFF_SEED", 1)
	t.Logf("differential corpus: QUERYDIFF_N=%d QUERYDIFF_SEED=%d", n, seed)
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			st := buildTestStore(t, t.TempDir(), n, seed, true)
			defer st.Close()
			e := New(st, Options{NoRebuild: true, Metrics: obs.NewRegistry()})
			if _, err := e.BuildAll(); err != nil {
				t.Fatal(err)
			}
			infos := st.SegmentInfos()
			if len(infos) < 3 {
				t.Fatalf("need >= 3 segments, got %d", len(infos))
			}
			c.wreck(t, st.Dir(), infos[0].ID)

			wrecked, _ := os.ReadFile(sidecarPath(st.Dir(), infos[0].ID))
			fallbacks := 0
			for _, p := range differentialPreds() {
				scan, surv := diffOne(t, e, p)
				fallbacks += scan.Fallbacks + surv.Fallbacks
				if scan.Rebuilt != 0 || surv.Rebuilt != 0 {
					t.Fatalf("NoRebuild engine rebuilt sidecars on %s", p)
				}
			}
			if fallbacks == 0 {
				t.Fatal("no fallback recorded — the corruption was never hit")
			}
			// NoRebuild must not have healed the wreckage behind our back.
			after, err := os.ReadFile(sidecarPath(st.Dir(), infos[0].ID))
			if c.name == "missing" {
				if !os.IsNotExist(err) {
					t.Fatal("NoRebuild engine recreated a sidecar")
				}
			} else if !bytes.Equal(after, wrecked) {
				t.Fatal("NoRebuild engine rewrote the wrecked sidecar")
			}
		})
	}
}

// TestQueryRebuildsStaleSidecars: the default engine self-heals — a
// wrecked sidecar is rebuilt in-line and the files come back fresh.
func TestQueryRebuildsStaleSidecars(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 400, 3, false)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	infos := st.SegmentInfos()
	flipByte(t, sidecarPath(st.Dir(), infos[0].ID), -15)

	p := Pred{Registrar: "eNom"}
	stats, _ := diffOne(t, e, p)
	if stats.Rebuilt == 0 {
		t.Fatalf("expected an in-line rebuild, stats: %s", stats)
	}
	if _, err := loadSidecar(sidecarPath(st.Dir(), infos[0].ID)); err != nil {
		t.Fatalf("sidecar not healed: %v", err)
	}
	// Second query runs entirely off the healed sidecars.
	scan, surv := diffOne(t, e, p)
	if scan.Rebuilt != 0 || scan.Fallbacks != 0 || surv.Rebuilt != 0 || surv.Fallbacks != 0 {
		t.Fatalf("second query still degraded: %s / %s", scan, surv)
	}
}

// TestSidecarPruning: a predicate matching one segment's worth of rows
// must skip (not scan) the segments that cannot hold it.
func TestSidecarPruning(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 900, 2, false)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	stats, surv := diffOne(t, e, Pred{Registrar: rareRegistrar})
	if stats.Pruned == 0 || surv.Pruned != stats.Pruned {
		t.Fatalf("selective predicate pruned nothing, or Scan and Survey prune differently: %s / %s", stats, surv)
	}
	if stats.RecordsRead >= 900/2 {
		t.Fatalf("selective predicate read %d records", stats.RecordsRead)
	}
	// An impossible year prunes every sealed segment.
	stats, _ = diffOne(t, e, Pred{Year: 1890, HasYear: true})
	if stats.Pruned < stats.Segments-2 {
		t.Fatalf("year=1890 should prune nearly all segments: %s", stats)
	}
}

// TestAutoBuild: the seal hook derives sidecars in the background as
// segments rotate.
func TestAutoBuild(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentBytes: 4 << 10, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	e.AutoBuild()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		if err := st.Append(genRecord(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	infos := st.SegmentInfos()
	if len(infos) < 2 {
		t.Fatal("no rotation happened")
	}
	// The hook runs on the store's seal worker; poll briefly.
	first := sidecarPath(dir, infos[0].ID)
	deadline := 200
	for ; deadline > 0; deadline-- {
		if _, err := os.Stat(first); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatalf("sidecar %s never appeared", first)
	}
	if _, err := loadSidecar(first); err != nil {
		t.Fatalf("auto-built sidecar invalid: %v", err)
	}
}

// goroutinesJoined notes the goroutine count; the returned check polls
// briefly until the count is back at that baseline, so a goroutine the
// code under test started and did not join fails the test.
func goroutinesJoined(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before Open:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestAutoBuildJoinsGoroutines: a store that rotates, compresses and
// compacts under AutoBuild has run every sidecar build, and left no
// goroutine behind, once Close returns.
func TestAutoBuildJoinsGoroutines(t *testing.T) {
	joined := goroutinesJoined(t)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentBytes: 4 << 10, BlockRecords: 5, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	New(st, Options{Metrics: obs.NewRegistry()}).AutoBuild()
	rng := rand.New(rand.NewSource(11))
	const n = 300
	for i := 0; i < n; i++ {
		if err := st.Append(genRecord(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.CompressSealed(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	merged := st.SegmentInfos()[0]
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	joined()
	sc, err := loadSidecar(sidecarPath(dir, merged.ID))
	if err != nil {
		t.Fatalf("compacted segment's sidecar: %v", err)
	}
	if len(sc.rows) != n {
		t.Fatalf("sidecar covers %d records, want the %d of the compacted segment", len(sc.rows), n)
	}
}

// TestBuildAllRemovesOrphans: sidecars for segments compaction dropped
// are cleaned up, and so are the zone maps and posting indexes older
// builds left.
func TestBuildAllRemovesOrphans(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 400, 5, false)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	glob := "*" + sidecarSuffix
	before, _ := filepath.Glob(filepath.Join(st.Dir(), glob))
	if len(before) < 2 {
		t.Fatalf("expected several sidecars, got %d", len(before))
	}
	for _, old := range []string{"00000001.zm", "00000001.idx", "00000002.idx"} {
		if err := os.WriteFile(filepath.Join(st.Dir(), old), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(st.Dir(), glob))
	// Compaction merged everything into segment 1; only its sidecar (and
	// no orphan) should remain.
	if len(after) != 1 {
		t.Fatalf("after compaction: %d sidecars remain (%v)", len(after), after)
	}
	for _, old := range []string{"*.zm", "*.idx"} {
		if left, _ := filepath.Glob(filepath.Join(st.Dir(), old)); len(left) != 0 {
			t.Fatalf("older builds' sidecars remain: %v", left)
		}
	}
	// And the surviving sidecar answers queries.
	stats, _ := diffOne(t, New(st, Options{NoRebuild: true, Metrics: obs.NewRegistry()}), Pred{Registrar: rareRegistrar})
	if stats.Fallbacks != 0 {
		t.Fatalf("post-compaction sidecars not fresh: %s", stats)
	}
}

// TestEngineSurvey: the survey built from a predicate equals the survey
// of the brute-force matches, and sealed segments with fresh sidecars
// are folded from the sidecars alone: only the active segment's records
// are decoded.
func TestEngineSurvey(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 600, 7, true)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	infos := st.SegmentInfos()
	active := infos[len(infos)-1]
	_, surv := diffOne(t, e, Pred{Since: 2005})
	if surv.FromSidecar+surv.Pruned != len(infos)-1 || surv.RecordsRead != active.Records {
		t.Fatalf("survey decoded %d records (active segment holds %d): %s", surv.RecordsRead, active.Records, surv)
	}
}

// TestSidecarRoundTrip: a built sidecar survives encode and decode
// exactly, and answers each row as the record's own facts.
func TestSidecarRoundTrip(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 300, 6, true)
	defer st.Close()
	r, err := st.OpenSegment(st.SegmentInfos()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc, err := buildSidecar(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSidecar(sc.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, sc)
	}
	i := 0
	err = r.Frames(func(_ int64, payloads [][]byte) error {
		for _, payload := range payloads {
			rec, err := store.DecodeRecord(payload)
			if err != nil {
				return err
			}
			want := rec.Facts
			want.Domain, want.ModelVersion = "", ""
			if f := got.facts(i); f != want {
				t.Fatalf("row %d = %+v, want %+v", i, f, want)
			}
			i++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(got.rows) || len(got.frames) < 2 || got.frames[0].n < 2 {
		t.Fatalf("%d rows for %d records in %d frames; want compressed blocks", len(got.rows), i, len(got.frames))
	}
}

// TestSidecarBytesV1Fixture pins the sidecar format: over the store's
// checked-in v1 fixture, compressed in blocks of five, the segment and
// the sidecar BuildAll writes for it hash to fixed values.
func TestSidecarBytesV1Fixture(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"00000001.seg", "00000002.seg"} {
		b, err := os.ReadFile(filepath.Join("..", "store", "testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(dir, store.Options{BlockRecords: 5, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.CompressSealed(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(st, Options{Metrics: obs.NewRegistry()}).BuildAll(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, sha string }{
		{"00000001.seg", "68a1b1e3ceb1b6ef65a6515e08fd3703d836d1bbee515c9a3b896aa285e2e4e9"},
		{"00000001" + sidecarSuffix, "426c7668223f1615d7b18a2f45407f922b1fb285c7971bf3323fb09a390048cc"},
	} {
		b, err := os.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.sha {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.sha)
		}
	}
}
