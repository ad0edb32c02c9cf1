package query

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/store"
)

// fuzzFactsSeeds are valid encoded sidecars plus hand-built corruptions;
// the checked-in corpus under testdata/fuzz/FuzzFactsDecode holds the
// same inputs as files. Every seed doubles as a regression input on
// plain `go test`.
func fuzzFactsSeeds() [][]byte {
	plain := &sidecar{
		segID: 3, fingerprint: 0x01020304,
		dict:   []string{"", "China", "Org 1", "eNom"},
		frames: []frameSpan{{off: 8, n: 1}, {off: 97, n: 1}, {off: 180, n: 1}},
		rows: []factsRow{
			{codes: [numCols]uint32{3, 1, 2, 0}, year: 2014},
			{codes: [numCols]uint32{0, 0, 0, 0}, year: 0, flags: rowBlacklisted},
			{codes: [numCols]uint32{3, 0, 0, 2}, year: 1999, flags: rowPrivacy},
		},
	}
	blocks := &sidecar{
		segID: 12, fingerprint: 0xdeadbeef,
		dict:   []string{"GoDaddy.com, LLC", "United States", "WhoisGuard"},
		frames: []frameSpan{{off: 8, n: 3}, {off: 1412, n: 2}},
		rows: []factsRow{
			{codes: [numCols]uint32{0, 1, 1, 1}, year: 2005},
			{codes: [numCols]uint32{0, 1, 1, 1}, year: 2005},
			{codes: [numCols]uint32{0, 0, 0, 2}, year: 2012, flags: rowPrivacy | rowBlacklisted},
			{codes: [numCols]uint32{0, 1, 0, 0}, year: 9999},
			{codes: [numCols]uint32{2, 2, 2, 2}},
		},
	}
	a, b := plain.encode(), blocks.encode()
	seeds := [][]byte{
		a,
		b,
		{},                                   // empty
		a[:4],                                // magic only
		a[:len(a)/2],                         // truncated body
		append(append([]byte{}, a...), 0xff), // trailing garbage
	}
	// Flip one byte at several positions of both valid sidecars.
	for _, src := range [][]byte{a, b} {
		for _, pos := range []int{0, 4, 5, len(src) / 2, len(src) - 1} {
			c := append([]byte(nil), src...)
			c[pos] ^= 0x80
			seeds = append(seeds, c)
		}
	}
	// A row count of 2^40 behind a valid checksum, with one frame
	// claiming them all: the decoder must refuse before allocating.
	forged := append([]byte(nil), sidecarMagic[:]...)
	forged = append(forged, sidecarVersion, 3, 4, 3, 2, 1)
	forged = binary.AppendUvarint(forged, 1<<40)
	forged = append(forged, 0, 1, 8)
	forged = binary.AppendUvarint(forged, 1<<40)
	forged = binary.LittleEndian.AppendUint32(forged, crc32.Checksum(forged, store.Castagnoli))
	return append(seeds, forged)
}

// FuzzFactsDecode holds the sidecar decoder to its whole contract under
// arbitrary bytes: return a value or ErrBadSidecar — never panic, never
// over-read, never allocate proportionally to a forged count — and
// round-trip anything it accepts. The engine trusts nothing else: a
// decoded sidecar that is merely stale is caught by the fingerprint
// check, and a frame it misplaces by the frame CRC, the frame's record
// count and the Match re-check, so decode robustness is the only thing
// fuzz must establish.
func FuzzFactsDecode(f *testing.F) {
	for _, s := range fuzzFactsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The checksum stops almost every mutation at the envelope, so
		// each input is also tried with its checksum recomputed, which
		// hands the mutated body to the body parser.
		for _, in := range [][]byte{data, reseal(data)} {
			sc, err := decodeSidecar(in[:len(in):len(in)])
			if err != nil {
				continue
			}
			sc2, err := decodeSidecar(sc.encode())
			if err != nil {
				t.Fatalf("re-encoded sidecar rejected: %v", err)
			}
			if !reflect.DeepEqual(sc, sc2) {
				t.Fatalf("sidecar round trip diverged:\n first %+v\nsecond %+v", sc, sc2)
			}
			for i := range sc.rows {
				_ = sc.facts(i)
			}
		}
	})
}

// reseal returns a copy of data with its trailing CRC32C recomputed over
// the bytes before it.
func reseal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	body := append([]byte(nil), data[:len(data)-4]...)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, store.Castagnoli))
}

// TestFuzzSeedsAsRegressions runs every seed through the decoder even
// when fuzzing is off, so `go test` alone exercises the corpus.
func TestFuzzSeedsAsRegressions(t *testing.T) {
	valid := 0
	for _, s := range fuzzFactsSeeds() {
		if _, err := decodeSidecar(s); err == nil {
			valid++
		}
	}
	if valid != 2 {
		t.Fatalf("%d seeds decode, want the 2 valid ones", valid)
	}
}
