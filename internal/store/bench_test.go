package store

import (
	"testing"
)

// BenchmarkStoreAppend measures the full append path — encode into the
// store's reused buffers, frame, CRC, one unbuffered write of the frame,
// segment accounting and metrics — without fsync (the sink's checkpoint
// cadence owns durability).
func BenchmarkStoreAppend(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	recs := make([]*Record, 64)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCompress measures one CompressSealed pass over four
// freshly sealed plain segments of 512 records each, on
// min(GOMAXPROCS, 4) workers: the frame walk, the records streamed into
// each worker's pooled flate writer, and the rewrite's file swap per
// segment. Appending and sealing the input runs with the timer stopped.
func BenchmarkStoreCompress(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	recs := make([]*Record, 64)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	const segments, perSegment = 4, 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for seg := 0; seg < segments; seg++ {
			for j := 0; j < perSegment; j++ {
				if err := st.Append(recs[j%len(recs)]); err != nil {
					b.Fatal(err)
				}
			}
			sealActive(b, st)
		}
		b.StartTimer()
		cs, err := st.CompressSealed()
		if err != nil {
			b.Fatal(err)
		}
		if cs.Segments != segments {
			b.Fatalf("CompressSealed rewrote %d segments, want %d", cs.Segments, segments)
		}
	}
}

// BenchmarkStoreScan measures per-record streaming read cost: frame
// scan, CRC verify, and full record decode over a pre-built store.
func BenchmarkStoreScan(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	read := 0
	for read < b.N {
		it := st.Iter()
		for it.Next() && read < b.N {
			read++
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		it.Close()
	}
}
