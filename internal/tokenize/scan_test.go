package tokenize

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/synth"
	"repro/internal/templates"
)

// checkScan fails t unless Tokenize and Scan+AppendIDs reproduce the
// reference tokenizer on text under opts: the same retained lines, the
// same observation strings, and the same ids through a dictionary
// holding every observation and through one trimmed of singletons (so
// unknown observations are dropped identically).
func checkScan(t testing.TB, text string, opts Options) {
	t.Helper()
	want := refTokenize(text, opts)
	got := Tokenize(text, opts)
	var s Scan
	s.Reset(text, opts)
	if len(got) != len(want) || len(s.Lines) != len(want) {
		t.Fatalf("opts %+v: Tokenize %d lines, Scan %d, reference %d on %q",
			opts, len(got), len(s.Lines), len(want), text)
	}
	for i, w := range want {
		for _, g := range []Line{got[i], s.Lines[i]} {
			if g.Raw != w.Raw || g.Title != w.Title || g.Value != w.Value || g.HasSep != w.HasSep {
				t.Fatalf("opts %+v line %d: got %+v, reference %+v", opts, i, g, w)
			}
		}
		if s.Lines[i].Obs != nil {
			t.Fatalf("opts %+v line %d: Scan line carries Obs %q", opts, i, s.Lines[i].Obs)
		}
		if len(got[i].Obs) != len(w.Obs) {
			t.Fatalf("opts %+v line %d: obs %q, reference %q", opts, i, got[i].Obs, w.Obs)
		}
		for k := range w.Obs {
			if got[i].Obs[k] != w.Obs[k] {
				t.Fatalf("opts %+v line %d: obs %q, reference %q", opts, i, got[i].Obs, w.Obs)
			}
		}
	}
	records := [][]Line{want}
	for _, d := range []*Dictionary{BuildDictionary(records, 1), BuildDictionary(records, 2)} {
		var ids []int
		for i, w := range want {
			ids = d.AppendIDs(ids[:0], &s, i)
			ref := d.MapLine(w)
			if len(ids) != len(ref) {
				t.Fatalf("opts %+v line %d: ids %v, reference %v", opts, i, ids, ref)
			}
			for k := range ref {
				if ids[k] != ref[k] {
					t.Fatalf("opts %+v line %d: ids %v, reference %v", opts, i, ids, ref)
				}
			}
		}
	}
}

func envInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// TestScanDifferential holds the scanner to the reference over a
// synthetic corpus (with drifted formats) and every schema's new-TLD
// records, under all 8 Options combinations. PARSEDIFF_N and
// PARSEDIFF_SEED (the knobs of `make parse-diff`) widen the corpus.
func TestScanDifferential(t *testing.T) {
	n := int(envInt("PARSEDIFF_N", 300))
	seed := envInt("PARSEDIFF_SEED", 1)
	t.Logf("scan corpus: PARSEDIFF_N=%d PARSEDIFF_SEED=%d", n, seed)
	var texts []string
	for _, d := range synth.Generate(synth.Config{N: n, Seed: seed, DriftFraction: 0.2, BrandFraction: 0.02}) {
		texts = append(texts, d.Render().Text)
	}
	regs := synth.Generate(synth.Config{N: 1, Seed: seed})
	for _, sc := range append(templates.ComSchemas(), templates.NewTLDSchemas()...) {
		texts = append(texts, sc.Render(&regs[0].Reg).Text)
	}
	for _, opts := range allOptions() {
		for _, text := range texts {
			checkScan(t, text, opts)
		}
	}
}

// TestScanSteadyStateAllocs pins the point of the scanner: once its
// buffers have grown, scanning a record and mapping every line to ids
// allocates nothing.
func TestScanSteadyStateAllocs(t *testing.T) {
	text := synth.Generate(synth.Config{N: 1, Seed: 509})[0].Render().Text
	d := BuildDictionary([][]Line{Tokenize(text, Options{})}, 1)
	var s Scan
	var ids []int
	run := func() {
		s.Reset(text, Options{})
		ids = ids[:0]
		for i := range s.Lines {
			ids = d.AppendIDs(ids, &s, i)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("Scan.Reset + AppendIDs allocate %.0f/op in steady state, want 0", allocs)
	}
}
