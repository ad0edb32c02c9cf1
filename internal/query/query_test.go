package query

import (
	"math/rand"
	"os"
	"path/filepath"
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
// predicate zone maps should prune almost every segment for.
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
// compresses the sealed segments so postings exercise Idx > 0.
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

// diffOne runs p through the planner and the brute-force reference and
// fails unless the matched record streams and the rendered surveys are
// byte-identical.
func diffOne(t *testing.T, e *Engine, p Pred) Stats {
	t.Helper()
	var got, want []string
	gotSv, wantSv := &survey.Survey{}, &survey.Survey{}
	stats, err := e.Scan(p, func(rec *store.Record) error {
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
	if renderSurvey(gotSv) != renderSurvey(wantSv) {
		t.Fatalf("Scan(%s): surveys render differently", p)
	}
	if stats.Matched != uint64(len(got)) {
		t.Fatalf("Scan(%s): stats.Matched = %d, emitted %d", p, stats.Matched, len(got))
	}
	return stats
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
			seeked := 0
			for _, p := range differentialPreds() {
				stats := diffOne(t, e, p)
				seeked += stats.IndexSeeked
			}
			if seeked == 0 {
				t.Fatal("no predicate ever used the index — the differential exercised nothing")
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
	{"flipped-idx", func(t *testing.T, dir string, id uint64) {
		flipByte(t, IndexPath(dir, id), -20)
	}},
	{"flipped-zm", func(t *testing.T, dir string, id uint64) {
		flipByte(t, ZonePath(dir, id), 7)
	}},
	{"truncated-idx", func(t *testing.T, dir string, id uint64) {
		data, err := os.ReadFile(IndexPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(IndexPath(dir, id), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"missing", func(t *testing.T, dir string, id uint64) {
		if err := os.Remove(ZonePath(dir, id)); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(IndexPath(dir, id)); err != nil {
			t.Fatal(err)
		}
	}},
	{"stale-foreign", func(t *testing.T, dir string, id uint64) {
		// A sidecar copied from a different segment: valid envelope,
		// wrong identity.
		other := id + 1
		for _, cp := range [][2]string{
			{ZonePath(dir, other), ZonePath(dir, id)},
			{IndexPath(dir, other), IndexPath(dir, id)},
		} {
			data, err := os.ReadFile(cp[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cp[1], data, 0o644); err != nil {
				t.Fatal(err)
			}
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

			fallbacks := 0
			for _, p := range differentialPreds() {
				stats := diffOne(t, e, p)
				fallbacks += stats.Fallbacks
				if stats.Rebuilt != 0 {
					t.Fatalf("NoRebuild engine rebuilt sidecars on %s", p)
				}
			}
			if fallbacks == 0 {
				t.Fatal("no fallback recorded — the corruption was never hit")
			}
			// NoRebuild must not have healed the wreckage behind our back.
			if c.name == "missing" {
				if _, err := os.Stat(ZonePath(st.Dir(), infos[0].ID)); !os.IsNotExist(err) {
					t.Fatal("NoRebuild engine recreated a sidecar")
				}
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
	flipByte(t, IndexPath(st.Dir(), infos[0].ID), -15)

	p := Pred{Registrar: "eNom"}
	stats := diffOne(t, e, p)
	if stats.Rebuilt == 0 {
		t.Fatalf("expected an in-line rebuild, stats: %s", stats)
	}
	if _, err := LoadIndex(IndexPath(st.Dir(), infos[0].ID)); err != nil {
		t.Fatalf("sidecar not healed: %v", err)
	}
	// Second query runs entirely off the healed sidecars.
	stats = diffOne(t, e, p)
	if stats.Rebuilt != 0 || stats.Fallbacks != 0 {
		t.Fatalf("second query still degraded: %s", stats)
	}
}

// TestZoneMapPruning: a predicate matching one segment's worth of rows
// must skip (not scan) the segments that cannot hold it.
func TestZoneMapPruning(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 900, 2, false)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	stats := diffOne(t, e, Pred{Registrar: rareRegistrar})
	if stats.Pruned == 0 {
		t.Fatalf("selective predicate pruned nothing: %s", stats)
	}
	if stats.RecordsRead >= 900/2 {
		t.Fatalf("selective predicate read %d records", stats.RecordsRead)
	}
	// An impossible year prunes every sealed segment.
	stats = diffOne(t, e, Pred{Year: 1890, HasYear: true})
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
	// The hook runs in background goroutines; poll briefly.
	firstZM := ZonePath(dir, infos[0].ID)
	deadline := 200
	for ; deadline > 0; deadline-- {
		if _, err := os.Stat(firstZM); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatalf("sidecar %s never appeared", firstZM)
	}
	if _, err := LoadZoneMap(firstZM); err != nil {
		t.Fatalf("auto-built zone map invalid: %v", err)
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
	z, err := LoadZoneMap(ZonePath(dir, merged.ID))
	if err != nil {
		t.Fatalf("compacted segment's zone map: %v", err)
	}
	if z.Records != n {
		t.Fatalf("zone map covers %d records, want the %d of the compacted segment", z.Records, n)
	}
}

// TestBuildAllRemovesOrphans: sidecars for segments compaction dropped
// are cleaned up.
func TestBuildAllRemovesOrphans(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 400, 5, false)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(st.Dir(), "*.zm"))
	if len(before) < 2 {
		t.Fatalf("expected several zone maps, got %d", len(before))
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(st.Dir(), "*.zm"))
	// Compaction merged everything into segment 1; only its sidecar (and
	// no orphan) should remain.
	if len(after) != 1 {
		t.Fatalf("after compaction: %d zone maps remain (%v)", len(after), after)
	}
	// And the surviving sidecar answers queries.
	stats := diffOne(t, New(st, Options{NoRebuild: true, Metrics: obs.NewRegistry()}), Pred{Registrar: rareRegistrar})
	if stats.Fallbacks != 0 {
		t.Fatalf("post-compaction sidecars not fresh: %s", stats)
	}
}

// TestEngineSurvey: the survey built from a predicate equals the survey
// of the brute-force matches.
func TestEngineSurvey(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 600, 7, true)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	p := Pred{Since: 2005}
	sv, stats, err := e.Survey(p)
	if err != nil {
		t.Fatal(err)
	}
	want := &survey.Survey{}
	if err := e.FullScan(p, func(rec *store.Record) error {
		want.Add(rec.Facts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sv.Len() != want.Len() || renderSurvey(sv) != renderSurvey(want) {
		t.Fatalf("Survey diverged: %d vs %d rows (stats %s)", sv.Len(), want.Len(), stats)
	}
}

// TestSidecarRoundTrip: the codecs are exact mirrors.
func TestSidecarRoundTrip(t *testing.T) {
	z := &ZoneMap{
		SegID: 7, Fingerprint: 0xdeadbeef, Records: 123,
		MinYear: 1998, MaxYear: 2015, YearZero: true,
		Registrars: []string{"", "a", "b"}, Countries: []string{"China", "United States"},
		CountryOverflow: true,
	}
	z2, err := decodeZoneMap(encodeZoneMap(z))
	if err != nil {
		t.Fatal(err)
	}
	if z2.SegID != z.SegID || z2.Fingerprint != z.Fingerprint || z2.Records != z.Records ||
		z2.MinYear != z.MinYear || z2.MaxYear != z.MaxYear || z2.YearZero != z.YearZero ||
		!z2.CountryOverflow || z2.RegOverflow ||
		strings.Join(z2.Registrars, "|") != "|a|b" || strings.Join(z2.Countries, "|") != "China|United States" {
		t.Fatalf("zone map round trip: %+v", z2)
	}

	x := &Index{
		SegID: 7, Fingerprint: 0xdeadbeef, Records: 123,
		Registrar: map[string][]Posting{
			"":     {{Off: 5, Idx: 0}},
			"eNom": {{Off: 5, Idx: 1}, {Off: 900, Idx: 0}},
		},
		Country: map[string][]Posting{"China": {{Off: 5, Idx: 0}, {Off: 5, Idx: 1}, {Off: 900, Idx: 0}}},
		Year:    nil, // overflowed section survives as nil
	}
	x2, err := decodeIndex(encodeIndex(x))
	if err != nil {
		t.Fatal(err)
	}
	if x2.Year != nil {
		t.Fatal("overflowed year section decoded non-nil")
	}
	if len(x2.Registrar) != 2 || len(x2.Registrar["eNom"]) != 2 || x2.Registrar["eNom"][1] != (Posting{Off: 900, Idx: 0}) {
		t.Fatalf("index round trip: %+v", x2.Registrar)
	}
	if len(x2.Country["China"]) != 3 || x2.Country["China"][1] != (Posting{Off: 5, Idx: 1}) {
		t.Fatalf("index round trip: %+v", x2.Country)
	}
}

func TestIntersectPostings(t *testing.T) {
	a := []Posting{{5, 0}, {5, 1}, {90, 0}, {200, 3}}
	b := []Posting{{5, 1}, {90, 0}, {90, 1}, {201, 0}}
	got := intersectPostings(a, b)
	want := []Posting{{5, 1}, {90, 0}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if out := intersectPostings(a, nil); len(out) != 0 {
		t.Fatalf("intersect with empty = %v", out)
	}
}
