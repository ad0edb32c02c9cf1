package store

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// fuzzSeeds are valid encoded payloads plus hand-built corruptions; the
// checked-in corpus under testdata/fuzz extends them with generated
// crashers. Every seed doubles as a regression input on plain `go test`.
func fuzzSeeds() [][]byte {
	full := appendRecord(nil, testRecord(7))
	thin := appendRecord(nil, &Record{Domain: "a.com"})
	seeds := [][]byte{
		full,
		thin,
		{},                                      // empty payload
		{recordKind},                            // kind only, no flags
		{0xff, 0x00},                            // unknown kind
		full[:len(full)/2],                      // truncated mid-record
		append(append([]byte{}, full...), 0x01), // trailing garbage
	}
	// Flip one byte at several positions of a valid payload.
	for _, pos := range []int{0, 1, 2, len(full) / 3, len(full) - 1} {
		b := append([]byte(nil), full...)
		b[pos] ^= 0x80
		seeds = append(seeds, b)
	}
	// Length varint claiming far more bytes than remain.
	seeds = append(seeds, []byte{recordKind, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	return seeds
}

// FuzzRecordDecode asserts the decoder's only contract under arbitrary
// bytes: return a record or an error — never panic, never over-read
// (guaranteed structurally by the bounds-checked reader), and round-trip
// anything it accepts.
func FuzzRecordDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		// Accepted payloads must re-encode and decode to the same record:
		// the encoder and decoder stay exact mirrors.
		re := appendRecord(nil, rec)
		rec2, err := decodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", rec, rec2)
		}
	})
}

// FuzzFrameScan feeds arbitrary bytes to the frame scanner as if they
// were a segment body: it must terminate with io.EOF or a frame error,
// never panic or loop, and every intact frame it yields must carry a
// matching checksum by construction.
func FuzzFrameScan(f *testing.F) {
	// Valid single and double frames, plus torn and corrupt variants.
	one := AppendFrame(nil, appendRecord(nil, testRecord(1)))
	two := AppendFrame(append([]byte(nil), one...), appendRecord(nil, testRecord(2)))
	f.Add(one)
	f.Add(two)
	f.Add(one[:len(one)-2])                     // torn CRC
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // varint too long
	f.Add([]byte{0x05, 1, 2, 3})                // length beyond input
	flip := append([]byte(nil), one...)
	flip[len(flip)/2] ^= 0x01
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := newFrameScanner(bytes.NewReader(data), 0)
		var frames int
		for {
			payload, start, err := sc.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTornFrame) && !errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrFrameTooBig) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			if start < 0 || start > int64(len(data)) {
				t.Fatalf("frame start %d outside input of %d bytes", start, len(data))
			}
			_ = payload
			frames++
			if frames > len(data) {
				t.Fatal("more frames than input bytes")
			}
		}
	})
}

// TestFuzzSeedsAsRegressions runs every seed through the decoder even
// when fuzzing is off, so `go test` alone exercises the corpus.
func TestFuzzSeedsAsRegressions(t *testing.T) {
	for i, s := range fuzzSeeds() {
		rec, err := decodeRecord(s)
		if err == nil && rec.Domain == "" && s[0] == recordKind {
			// Valid records with empty domains are fine; just ensure no
			// panic happened to get here.
			continue
		}
		_ = rec
		_ = i
	}
}
