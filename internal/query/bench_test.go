package query

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// benchStore builds the benchmark corpus: ~16 segments of ~1000
// pseudo-random records with two rareRegistrar rows, sidecars built —
// the shape where pruning should dominate.
func benchStore(b *testing.B) (*store.Store, *Engine) {
	b.Helper()
	st := buildTestStoreSized(b, b.TempDir(), 16384, 1, false, 160<<10)
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		b.Fatal(err)
	}
	return st, e
}

// benchPred is the selective predicate of the benchcheck ratio gate:
// present in two records, absent from every other segment's dictionary.
var benchPred = Pred{Registrar: rareRegistrar, Country: "Australia"}

// BenchmarkQueryPruned measures the sidecar path: dictionaries prune all
// but the segments actually holding the rare registrar, whose sidecar
// rows name the frames to read. benchcheck enforces a minimum ratio over
// BenchmarkQueryFullScan (see BENCH_query.json).
func BenchmarkQueryPruned(b *testing.B) {
	st, e := benchStore(b)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		if _, err := e.Scan(benchPred, func(*store.Record) error {
			matched++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if matched != 2 {
			b.Fatalf("matched %d, want 2", matched)
		}
	}
}

// BenchmarkQueryFullScan is the same predicate through the brute-force
// reference executor: every record decoded and tested.
func BenchmarkQueryFullScan(b *testing.B) {
	st, e := benchStore(b)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		if err := e.FullScan(benchPred, func(*store.Record) error {
			matched++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if matched != 2 {
			b.Fatalf("matched %d, want 2", matched)
		}
	}
}

// BenchmarkSidecarBuild measures deriving the facts sidecar of one sealed
// segment, in memory — the cost AutoBuild pays in the background on
// every seal, less the durable file write.
func BenchmarkSidecarBuild(b *testing.B) {
	st, _ := benchStore(b)
	defer st.Close()
	infos := st.SegmentInfos()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := st.OpenSegment(infos[0].ID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := buildSidecar(r); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
