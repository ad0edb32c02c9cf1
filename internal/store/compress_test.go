package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sealActive rotates the active segment, sealing its records as plain
// frames — what a crawl's rotation leaves for CompressSealed.
func sealActive(t testing.TB, st *Store) {
	t.Helper()
	st.mu.Lock()
	err := st.rotateLocked()
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// compressedFixture builds a store whose only non-empty segment is
// compressed: n records appended and sealed into segment 1, which
// CompressSealed rewrites into blocks of blockRecords.
func compressedFixture(t *testing.T, dir string, n, blockRecords int) {
	t.Helper()
	st, err := Open(dir, Options{BlockRecords: blockRecords})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	sealActive(t, st)
	cs, err := st.CompressSealed()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Segments != 1 || cs.Records != uint64(n) {
		t.Fatalf("CompressSealed = %+v, want 1 segment / %d records", cs, n)
	}
	if cs.BytesOut >= cs.BytesIn {
		t.Fatalf("compression grew the segment: %d -> %d bytes", cs.BytesIn, cs.BytesOut)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompressRoundTrip: compressing sealed segments changes only the
// frame envelope — record content, count, and order survive both a live
// iteration and a full close/reopen rescan.
func TestCompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 100
	compressedFixture(t, dir, n, 7)

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Len(); got != n {
		t.Fatalf("Len after reopen = %d, want %d", got, n)
	}
	infos := st.SegmentInfos()
	if infos[0].Blocks == 0 || infos[0].Plain != 0 {
		t.Fatalf("segment 1 not fully compressed: %+v", infos[0])
	}
	it := st.Iter()
	defer it.Close()
	var i int
	for it.Next() {
		want := testRecord(i)
		if it.Record().Domain != want.Domain || it.Record().Facts.Org != want.Facts.Org {
			t.Fatalf("record %d: got %q/%q", i, it.Record().Domain, it.Record().Facts.Org)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("iterated %d records, want %d", i, n)
	}
}

// segmentFrames returns the record payloads of each frame of segment id.
func segmentFrames(t *testing.T, st *Store, id uint64) [][][]byte {
	t.Helper()
	r, err := st.OpenSegment(id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var frames [][][]byte
	err = r.Frames(func(_ int64, payloads [][]byte) error {
		var frame [][]byte
		for _, p := range payloads {
			frame = append(frame, append([]byte(nil), p...))
		}
		frames = append(frames, frame)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestV1SegmentFixture pins the on-disk format with a checked-in store:
// testdata/v1 holds a sealed segment of plain frames carrying
// testRecord(0..22) and an empty active segment. It must open to those
// records, and CompressSealed must expand, in order, to exactly its
// record payloads, in blocks of BlockRecords.
func TestV1SegmentFixture(t *testing.T) {
	const n, blockRecords = 23, 5
	dir := t.TempDir()
	for _, name := range []string{"00000001.seg", "00000002.seg"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, Options{BlockRecords: blockRecords})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	it := st.Iter()
	var i int
	for it.Next() {
		want, err := decodeRecord(appendRecord(nil, testRecord(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(it.Record(), want) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, it.Record(), want)
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if i != n {
		t.Fatalf("iterated %d records, want %d", i, n)
	}

	plain := segmentFrames(t, st, 1)
	if len(plain) != n {
		t.Fatalf("fixture has %d frames, want %d plain frames", len(plain), n)
	}
	cs, err := st.CompressSealed()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Segments != 1 || cs.Records != n {
		t.Fatalf("CompressSealed = %+v, want 1 segment / %d records", cs, n)
	}
	var got [][]byte
	for k, block := range segmentFrames(t, st, 1) {
		if want := min(blockRecords, n-k*blockRecords); len(block) != want {
			t.Fatalf("block %d holds %d records, want %d", k, len(block), want)
		}
		got = append(got, block...)
	}
	if len(got) != n {
		t.Fatalf("compressed segment holds %d records, want %d", len(got), n)
	}
	for k, frame := range plain {
		if !bytes.Equal(got[k], frame[0]) {
			t.Fatalf("record %d payload changed by compression", k)
		}
	}
}

// TestCompactOverCompressed: a compaction whose inputs are compressed
// segments must still dedupe newest-wins, and its merged output is
// block frames.
func TestCompactOverCompressed(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	compressedFixture(t, dir, n, 6)

	st, err := Open(dir, Options{BlockRecords: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Overwrite the first 10 domains; compaction must keep the rewrites.
	for i := 0; i < 10; i++ {
		rec := testRecord(i)
		rec.Facts.Org = "rewritten"
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", stats.Dropped)
	}
	if got := st.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	infos := st.SegmentInfos()
	if infos[0].Blocks == 0 || infos[0].Plain != 0 {
		t.Fatalf("merged segment not compressed: %+v", infos[0])
	}
	// Newest-wins keeps the rewritten frames at their later positions, so
	// verify by domain rather than by iteration order.
	orgs := make(map[string]string)
	it := st.Iter()
	defer it.Close()
	for it.Next() {
		rec := it.Record()
		if _, dup := orgs[rec.Domain]; dup {
			t.Fatalf("domain %s survived twice", rec.Domain)
		}
		orgs[rec.Domain] = rec.Facts.Org
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(orgs) != n {
		t.Fatalf("iterated %d distinct domains, want %d", len(orgs), n)
	}
	for i := 0; i < n; i++ {
		domain := fmt.Sprintf("example%04d.com", i)
		want := fmt.Sprintf("Org %d", i%3)
		if i < 10 {
			want = "rewritten"
		}
		if orgs[domain] != want {
			t.Fatalf("domain %s: Org %q, want %q", domain, orgs[domain], want)
		}
	}
}

// lastFrameStart scans a segment file and returns the byte offset where
// its final frame begins.
func lastFrameStart(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := newFrameScanner(bytes.NewReader(data[segHeaderLen:]), segHeaderLen)
	last := int64(segHeaderLen)
	for {
		_, off, err := sc.next()
		if err == io.EOF {
			return last
		}
		if err != nil {
			t.Fatalf("scan %s at %d: %v", path, off, err)
		}
		last = off
	}
}

// TestCompressedRecoveryTruncatedTailEveryOffset mirrors the plain-frame
// crash-recovery contract for block frames: truncate the newest
// (compressed) segment at every byte offset inside its final block frame.
// Every reopen must drop exactly that block's records — a block frame is
// all-or-nothing — and leave a tail clean enough for new appends.
func TestCompressedRecoveryTruncatedTailEveryOffset(t *testing.T) {
	const n, blockRecords = 8, 3 // blocks of 3+3+2: the last frame holds 2 records
	base := t.TempDir()
	pristine := filepath.Join(base, "pristine")
	compressedFixture(t, pristine, n, blockRecords)
	// Drop the empty active segment so the compressed segment is newest —
	// the only position where tail truncation is a crash signature.
	if err := os.Remove(filepath.Join(pristine, "00000002.seg")); err != nil {
		t.Fatal(err)
	}
	segName := "00000001.seg"
	orig, err := os.ReadFile(filepath.Join(pristine, segName))
	if err != nil {
		t.Fatal(err)
	}
	cutFrom := lastFrameStart(t, filepath.Join(pristine, segName))
	const lastBlockRecords = n % blockRecords

	for cut := cutFrom; cut < int64(len(orig)); cut++ {
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
			if got := st.Len(); got != n-lastBlockRecords {
				t.Fatalf("recovered %d records, want %d", got, n-lastBlockRecords)
			}
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
			if i != n-lastBlockRecords {
				t.Fatalf("iterated %d records, want %d", i, n-lastBlockRecords)
			}
			// The tail is clean: a fresh append lands and survives reopen.
			if err := st.Append(testRecord(100)); err != nil {
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
			if got := st2.Len(); got != n-lastBlockRecords+1 {
				t.Fatalf("after recovery+append: Len = %d, want %d", got, n-lastBlockRecords+1)
			}
		})
	}
}

// TestCorruptBlockInSealedSegmentIsFatal: like plain frames, a damaged
// block anywhere but the newest segment must fail Open loudly.
func TestCorruptBlockInSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	compressedFixture(t, dir, 30, 4)
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
		t.Fatal("Open accepted a corrupt compressed sealed segment")
	}
}

// TestIterSurfacesSegmentCompacted is the regression test for the typed
// race error: a reader whose snapshot open races a compaction that
// already unlinked the segment file must see ErrSegmentCompacted, not a
// raw ENOENT wrapped in a *os.PathError.
func TestIterSurfacesSegmentCompacted(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 100; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", st.Segments())
	}
	// Simulate the tail end of a compaction the store hasn't observed
	// yet: the first segment's file is gone but its metadata lives on.
	if err := os.Remove(st.SegmentInfos()[0].Path); err != nil {
		t.Fatal(err)
	}
	it := st.Iter()
	defer it.Close()
	if it.Next() {
		t.Fatal("iterator yielded a record from a removed segment")
	}
	if err := it.Err(); !errors.Is(err, ErrSegmentCompacted) {
		t.Fatalf("Iter error = %v, want ErrSegmentCompacted", err)
	}
}

// TestOpenSegmentCompactedID: asking for a segment id that a compaction
// merged away reports the typed error, and so does an id whose file was
// removed underneath live metadata.
func TestOpenSegmentCompactedID(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.OpenSegment(42); !errors.Is(err, ErrSegmentCompacted) {
		t.Fatalf("OpenSegment(42) error = %v, want ErrSegmentCompacted", err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	infos := st.SegmentInfos()
	if err := os.Remove(infos[0].Path); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenSegment(infos[0].ID); !errors.Is(err, ErrSegmentCompacted) {
		t.Fatalf("OpenSegment error = %v, want ErrSegmentCompacted", err)
	}
}

// TestSegmentReaderFrames: Frames and FrameAt agree with the iterator on
// content for both plain and compressed segments, and the fingerprint
// moves when the bytes are rewritten.
func TestSegmentReaderFrames(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{BlockRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	sealActive(t, st)
	infos := st.SegmentInfos()
	r, err := st.OpenSegment(infos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	fpPlain, err := r.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	var domains []string
	err = r.Frames(func(off int64, payloads [][]byte) error {
		offs = append(offs, off)
		for _, p := range payloads {
			rec, err := DecodeRecord(p)
			if err != nil {
				return err
			}
			domains = append(domains, rec.Domain)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if len(domains) != n {
		t.Fatalf("Frames saw %d records, want %d", len(domains), n)
	}
	for i, d := range domains {
		if want := fmt.Sprintf("example%04d.com", i); d != want {
			t.Fatalf("frame record %d = %q, want %q", i, d, want)
		}
	}

	if _, err := st.CompressSealed(); err != nil {
		t.Fatal(err)
	}
	r2, err := st.OpenSegment(infos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	fpComp, err := r2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpComp == fpPlain {
		t.Fatal("fingerprint unchanged across a compression rewrite")
	}
	// FrameAt returns exactly the frame's records at each offset Frames
	// reported.
	offs = offs[:0]
	count := 0
	err = r2.Frames(func(off int64, payloads [][]byte) error {
		offs = append(offs, off)
		count += len(payloads)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("compressed Frames saw %d records, want %d", count, n)
	}
	for _, off := range offs {
		payloads, err := r2.FrameAt(off)
		if err != nil {
			t.Fatalf("FrameAt(%d): %v", off, err)
		}
		if len(payloads) == 0 || len(payloads) > 4 {
			t.Fatalf("FrameAt(%d): %d payloads", off, len(payloads))
		}
	}
	// Off-boundary seeks must error, not fabricate records.
	if _, err := r2.FrameAt(offs[0] + 1); err == nil {
		t.Fatal("FrameAt mid-frame succeeded")
	}
	if _, err := r2.FrameAt(1); err == nil {
		t.Fatal("FrameAt inside header succeeded")
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotShortAtFrameBoundary: a snapshot whose file is cut back at
// a frame boundary still parses as whole frames, so only its committed
// record count shows the loss. Iter and Frames share one walk, and both
// must report ErrTornFrame rather than end early as if the records were
// never there — for plain frames and for compressed blocks.
func TestSnapshotShortAtFrameBoundary(t *testing.T) {
	for _, blocks := range []bool{false, true} {
		t.Run(fmt.Sprintf("blocks=%v", blocks), func(t *testing.T) {
			dir := t.TempDir()
			const n = 40
			if blocks {
				compressedFixture(t, dir, n, 4)
			} else {
				st, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if err := st.Append(testRecord(i)); err != nil {
						t.Fatal(err)
					}
				}
				sealActive(t, st)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sealed := st.SegmentInfos()[0]
			if sealed.Records != n {
				t.Fatalf("sealed segment holds %d records, want %d", sealed.Records, n)
			}

			// Snapshot first, then learn the frame offsets and cut.
			it := st.Iter()
			defer it.Close()
			r, err := st.OpenSegment(sealed.ID)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var offs []int64
			if err := r.Frames(func(off int64, _ [][]byte) error {
				offs = append(offs, off)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(sealed.Path, offs[len(offs)/2]); err != nil {
				t.Fatal(err)
			}

			records := 0
			for it.Next() {
				records++
			}
			if !errors.Is(it.Err(), ErrTornFrame) {
				t.Fatalf("Iter after %d records: err = %v, want ErrTornFrame", records, it.Err())
			}
			if records >= n {
				t.Fatalf("Iter yielded %d records from a cut segment", records)
			}
			err = r.Frames(func(int64, [][]byte) error { return nil })
			if !errors.Is(err, ErrTornFrame) {
				t.Fatalf("Frames: err = %v, want ErrTornFrame", err)
			}
		})
	}
}

// TestFrameAtPlainFrame: FrameAt of a small plain frame returns the
// bytes Frames saw and allocates well under the 64 KiB a buffered
// frame scanner would; a bad offset, a flipped byte and a truncated
// file keep their errors.
func TestFrameAtPlainFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	sealActive(t, st)
	info := st.SegmentInfos()[0]
	r, err := st.OpenSegment(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var offs []int64
	var want [][]byte
	if err := r.Frames(func(off int64, payloads [][]byte) error {
		offs = append(offs, off)
		want = append(want, append([]byte(nil), payloads[0]...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, off := range offs {
		got, err := r.FrameAt(off)
		if err != nil || len(got) != 1 || !bytes.Equal(got[0], want[i]) {
			t.Fatalf("FrameAt(%d) = %d payloads, %v; want frame %d's payload", off, len(got), err, i)
		}
	}

	if !raceEnabled {
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := r.FrameAt(offs[1]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 8<<10 {
			t.Errorf("FrameAt of a %d-byte frame allocates %d B/op, want < 8 KiB", len(want[1]), per)
		}
	}

	if _, err := r.FrameAt(info.Size); err == nil {
		t.Error("FrameAt past the snapshot succeeded")
	}
	f, err := os.OpenFile(info.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	last := want[1][len(want[1])-1] // the byte before the frame's CRC
	if _, err := f.WriteAt([]byte{last ^ 0xff}, offs[2]-5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FrameAt(offs[1]); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("FrameAt of a flipped frame: %v, want ErrBadChecksum", err)
	}
	if err := f.Truncate(offs[2] + 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FrameAt(offs[2]); !errors.Is(err, ErrTornFrame) {
		t.Errorf("FrameAt of a truncated frame: %v, want ErrTornFrame", err)
	}
}

// appendBlock is the reference block encoder: a fresh raw buffer and a
// fresh flate writer per block, as the store wrote blocks before
// blockWriter reused its scratch. TestCompressedBytesMatchReference holds
// every rewrite to its bytes.
func appendBlock(buf []byte, payloads [][]byte) ([]byte, error) {
	var rawLen int
	for _, p := range payloads {
		rawLen += binary.MaxVarintLen64 + len(p)
	}
	raw := make([]byte, 0, rawLen)
	for _, p := range payloads {
		raw = binary.AppendUvarint(raw, uint64(len(p)))
		raw = append(raw, p...)
	}
	if len(raw) > maxBlockRaw {
		return nil, fmt.Errorf("%w: %d raw bytes", ErrBadBlock, len(raw))
	}
	buf = append(buf, blockKind)
	buf = binary.AppendUvarint(buf, uint64(len(payloads)))
	buf = binary.AppendUvarint(buf, uint64(len(raw)))
	var cb bytes.Buffer
	zw, err := flate.NewWriter(&cb, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return append(buf, cb.Bytes()...), nil
}

// referenceSegment is the reference for a whole rewritten segment: the
// header, then payloads in blocks of blockRecords, each block cut short
// once its payload bytes reach blockFlushBytes.
func referenceSegment(t *testing.T, payloads [][]byte, blockRecords int) []byte {
	t.Helper()
	out := segHeader()
	var batch [][]byte
	batchBytes := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		block, err := appendBlock(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		out = AppendFrame(out, block)
		batch, batchBytes = batch[:0], 0
	}
	for _, p := range payloads {
		batch = append(batch, p)
		batchBytes += len(p)
		if len(batch) >= blockRecords || batchBytes >= blockFlushBytes {
			flush()
		}
	}
	flush()
	return out
}

// bigRecord is testRecord(i) carrying a text of about 1.1 MiB of
// pseudo-random words, so four of them fill blockFlushBytes.
func bigRecord(i int) *Record {
	words := []string{"registrant", "example", "whois", "domain", "2014-03-01", "US", "privacy", "ns1.host.net"}
	rng := rand.New(rand.NewSource(int64(i)))
	var b strings.Builder
	for b.Len() < 1100<<10 {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(' ')
	}
	rec := testRecord(i)
	rec.Text = b.String()
	return rec
}

// TestCompressedBytesMatchReference: CompressSealed and Compact, which
// stream each record into one pooled flate writer reused across blocks
// and rewrites, write exactly the bytes of the reference encoder (a
// fresh writer compressing each block's raw stream in one Write),
// including a block cut short by blockFlushBytes.
func TestCompressedBytesMatchReference(t *testing.T) {
	const blockRecords = 8
	st, err := Open(t.TempDir(), Options{BlockRecords: blockRecords})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	appendSealed := func(recs ...*Record) {
		for _, rec := range recs {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		sealActive(t, st)
	}
	var small []*Record
	for i := 0; i < 30; i++ {
		small = append(small, testRecord(i))
	}
	appendSealed(small...)
	// Three small records and four big ones pass blockFlushBytes one
	// record short of blockRecords; the fifth big one ends the segment.
	appendSealed(testRecord(30), testRecord(31), testRecord(32),
		bigRecord(33), bigRecord(34), bigRecord(35), bigRecord(36), bigRecord(37))
	// Rewrites of earlier domains, which Compact drops the originals of.
	var again []*Record
	for i := 0; i < 20; i += 3 {
		rec := testRecord(i)
		rec.Facts.Org = "rewritten"
		again = append(again, rec)
	}
	appendSealed(again...)

	infos := st.SegmentInfos()
	sealed := infos[:len(infos)-1]
	var all [][]byte
	want := make([][]byte, len(sealed))
	for k, info := range sealed {
		var payloads [][]byte
		for _, frame := range segmentFrames(t, st, info.ID) {
			payloads = append(payloads, frame...)
		}
		all = append(all, payloads...)
		want[k] = referenceSegment(t, payloads, blockRecords)
	}
	if cs, err := st.CompressSealed(); err != nil || cs.Segments != len(sealed) {
		t.Fatalf("CompressSealed = %+v, %v; want %d segments", cs, err, len(sealed))
	}
	if got := segmentFrames(t, st, sealed[1].ID); len(got[0]) != 7 {
		t.Fatalf("segment 2's first block holds %d records, want 7 (cut by blockFlushBytes)", len(got[0]))
	}
	for k, info := range st.SegmentInfos()[:len(sealed)] {
		got, err := os.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[k]) {
			t.Fatalf("CompressSealed segment %d: %d bytes differ from the reference's %d", info.ID, len(got), len(want[k]))
		}
	}

	// Compact keeps the newest record per domain, in order.
	last := make(map[string]int)
	for i, p := range all {
		rec, err := decodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		last[rec.Domain] = i
	}
	var kept [][]byte
	for i, p := range all {
		rec, _ := decodeRecord(p)
		if last[rec.Domain] == i {
			kept = append(kept, p)
		}
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	merged := st.SegmentInfos()[0]
	got, err := os.ReadFile(merged.Path)
	if err != nil {
		t.Fatal(err)
	}
	if wantMerged := referenceSegment(t, kept, blockRecords); !bytes.Equal(got, wantMerged) {
		t.Fatalf("Compact: %d bytes differ from the reference's %d", len(got), len(wantMerged))
	}
}

// TestAppendAllocs: a steady-state Append encodes into the store's own
// buffers and allocates nothing.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := testRecord(1)
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f times per record, want 0", allocs)
	}
}

// TestCompressSealedAllocs: once the block scratch is pooled, a
// CompressSealed pass allocates only per segment (file handles, the
// frame reader), well under 1 KiB per record.
func TestCompressSealedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, err := Open(t.TempDir(), Options{BlockRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fill := func(base int) {
		for seg := 0; seg < 3; seg++ {
			for i := 0; i < 1000; i++ {
				if err := st.Append(testRecord(base + seg*1000 + i)); err != nil {
					t.Fatal(err)
				}
			}
			sealActive(t, st)
		}
	}
	fill(0)
	if _, err := st.CompressSealed(); err != nil {
		t.Fatal(err)
	}
	fill(3000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs, err := st.CompressSealed()
	runtime.ReadMemStats(&after)
	if err != nil || cs.Records != 3000 {
		t.Fatalf("CompressSealed = %+v, %v; want 3000 records", cs, err)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / cs.Records; per >= 1<<10 {
		t.Errorf("CompressSealed allocates %d B per record, want < 1 KiB", per)
	}
}

// TestCompressSealedAllocsFlat: on a warmed scratch pool, a pass's
// allocations grow with its segments (files, readers) and not with its
// records, so a length prefix or frame buffer that escaped per record
// shows up here.
func TestCompressSealedAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const perSegment = 512
	n := 0
	pass := func(segments int) uint64 {
		t.Helper()
		for seg := 0; seg < segments; seg++ {
			for j := 0; j < perSegment; j++ {
				if err := st.Append(testRecord(n)); err != nil {
					t.Fatal(err)
				}
				n++
			}
			sealActive(t, st)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cs, err := st.CompressSealed()
		runtime.ReadMemStats(&after)
		if err != nil || cs.Segments != segments {
			t.Fatalf("CompressSealed = %+v, %v; want %d segments", cs, err, segments)
		}
		return after.Mallocs - before.Mallocs
	}
	pass(8) // warm the pool and the store's buffers
	few, many := pass(2), pass(8)
	for try := 0; try < 2; try++ { // a GC may empty the pool mid-pass
		few, many = min(few, pass(2)), min(many, pass(8))
	}
	// 6 more segments carry 3,072 more records; one allocation per
	// record would add that many.
	if perSeg := float64(many-few) / 6; many < few || perSeg > perSegment/8 {
		t.Errorf("2 segments: %d allocs, 8 segments: %d; %.0f per extra segment of %d records, want <= %d",
			few, many, perSeg, perSegment, perSegment/8)
	}
}

// TestRewriteDirSyncFails: a rewrite whose directory sync fails after
// the swap returns the error from CompressSealed and Compact, with the
// segment list already matching the files: a reopened store reads the
// same segments and records.
func TestRewriteDirSyncFails(t *testing.T) {
	errSync := errors.New("sync refused")
	defer func(f func(string) error) { syncDir = f }(syncDir)
	syncDir = func(string) error { return errSync }

	dir := t.TempDir()
	st, err := Open(dir, Options{BlockRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 20; i++ {
			if err := st.Append(testRecord(seg*20 + i)); err != nil {
				t.Fatal(err)
			}
		}
		sealActive(t, st)
	}
	matchesDisk := func(op string) {
		t.Helper()
		live := st.SegmentInfos()
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		disk := re.SegmentInfos()
		re.Close()
		if !reflect.DeepEqual(live, disk) {
			t.Fatalf("after %s, the store's segments\n%+v\ndiffer from the files'\n%+v", op, live, disk)
		}
	}

	cs, err := st.CompressSealed()
	if !errors.Is(err, errSync) {
		t.Fatalf("CompressSealed = %v, want the directory sync's error", err)
	}
	if cs.Segments == 0 || st.SegmentInfos()[0].Blocks == 0 {
		t.Fatalf("CompressSealed = %+v; the failed sync should follow a swap", cs)
	}
	matchesDisk("CompressSealed")
	if got := st.Len(); got != 60 {
		t.Fatalf("after CompressSealed, %d records, want 60", got)
	}

	if _, err := st.Compact(); !errors.Is(err, errSync) {
		t.Fatalf("Compact = %v, want the directory sync's error", err)
	}
	if infos := st.SegmentInfos(); len(infos) != 2 || infos[0].Records != 60 {
		t.Fatalf("after Compact, segments %+v; want one merged segment of 60 records and the active one", infos)
	}
	matchesDisk("Compact")
}
