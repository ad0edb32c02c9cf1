package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRecoveryTruncatedTailEveryOffset is the crash-recovery contract:
// write N records, then simulate a crash mid-append by truncating the
// last frame at every possible byte offset. Every reopen must recover
// exactly N-1 records and leave a tail clean enough that new appends
// land and survive a further reopen.
func TestRecoveryTruncatedTailEveryOffset(t *testing.T) {
	const n = 8
	base := t.TempDir()

	// Build a pristine store once and note where the last frame begins.
	pristine := filepath.Join(base, "pristine")
	st, err := Open(pristine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lastFrameStart int64
	for i := 0; i < n; i++ {
		lastFrameStart = st.Bytes()
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	fullSize := st.Bytes()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segName := "00000001.seg"
	orig, err := os.ReadFile(filepath.Join(pristine, segName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(orig)) != fullSize {
		t.Fatalf("segment is %d bytes, store reported %d", len(orig), fullSize)
	}

	for cut := lastFrameStart; cut < fullSize; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segName), orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after cut at %d: %v", cut, err)
			}
			defer st.Close()
			if got := st.Len(); got != n-1 {
				t.Fatalf("recovered %d records, want %d", got, n-1)
			}
			wantTruncated := cut - lastFrameStart
			if got := st.RecoveredBytes(); got != wantTruncated {
				t.Fatalf("RecoveredBytes = %d, want %d", got, wantTruncated)
			}

			// The surviving records are intact and in order.
			it := st.Iter()
			var i int
			for it.Next() {
				if want := fmt.Sprintf("example%04d.com", i); it.Record().Domain != want {
					t.Fatalf("record %d: domain %q, want %q", i, it.Record().Domain, want)
				}
				i++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			if i != n-1 {
				t.Fatalf("iterated %d records, want %d", i, n-1)
			}

			// The tail is clean: a fresh append lands and survives reopen.
			if err := st.Append(testRecord(100 + int(cut))); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if got := st2.Len(); got != n {
				t.Fatalf("after recovery+append: Len = %d, want %d", got, n)
			}
			if st2.RecoveredBytes() != 0 {
				t.Fatalf("second reopen truncated %d bytes", st2.RecoveredBytes())
			}
		})
	}
}

// TestRecoveryFlippedByteInTail: a bit flip inside the last frame fails
// its CRC; on the newest segment that is recovered like a torn write.
func TestRecoveryFlippedByteInTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	var lastFrameStart int64
	for i := 0; i < n; i++ {
		lastFrameStart = st.Bytes()
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[lastFrameStart+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Len(); got != n-1 {
		t.Fatalf("recovered %d records, want %d", got, n-1)
	}
}

// TestCorruptionInSealedSegmentIsFatal: damage anywhere but the newest
// segment is not a crash signature — Open must refuse, not silently drop
// records.
func TestCorruptionInSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", st.Segments())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestRecoveryTornHeader: a crash between segment creation and header
// write leaves a short file; on the newest segment Open resets it.
func TestRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn creation of the next segment.
	if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), segMagic[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if err := st2.Append(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	if got := st2.Len(); got != 4 {
		t.Fatalf("Len after append = %d, want 4", got)
	}
}

// RecoveredBytes reports how many torn-tail bytes Open truncated.
func (s *Store) RecoveredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}
