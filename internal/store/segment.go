package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrSegmentCompacted is surfaced when a reader reaches for a segment
// that a Compact (or CompressSealed) rewrite has already removed or
// replaced — the typed form of the ENOENT a slow reader racing another
// goroutine's rewrite would otherwise see. Iterator snapshots hold file
// descriptors precisely to avoid this; paths that re-open by id
// (OpenSegment, the query engine's sidecar builder) report it so callers
// can re-plan instead of failing on a raw *os.PathError.
var ErrSegmentCompacted = errors.New("store: segment compacted away")

// SegmentInfo is the public snapshot of one segment's metadata.
type SegmentInfo struct {
	ID      uint64
	Path    string
	BaseSeq uint64 // store-wide seq of the segment's first record
	Records uint64
	Size    int64 // committed bytes
	Sealed  bool  // false only for the append target
	Blocks  uint64
	Plain   uint64
}

// SegmentInfos reports every segment's committed metadata at one
// instant. The last entry is the active (unsealed) segment.
func (s *Store) SegmentInfos() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.segments))
	for i, seg := range s.segments {
		out = append(out, SegmentInfo{
			ID:      seg.id,
			Path:    seg.path,
			BaseSeq: seg.baseSeq,
			Records: seg.records,
			Size:    seg.size,
			Sealed:  i != len(s.segments)-1,
			Blocks:  seg.blocks,
			Plain:   seg.plain,
		})
	}
	return out
}

// SegmentReader is a point-in-time read handle on one segment — the
// store's one read snapshot, which Iterator walks too: the file
// descriptor, committed size and record count are captured under the
// store lock, so a concurrent append, rotation, compaction, or
// compression rewrite cannot change what this reader sees.
type SegmentReader struct {
	f    *os.File
	info SegmentInfo
}

// OpenSegment opens a snapshot of the segment with the given id. A
// segment that no longer exists (merged or dropped by compaction)
// reports ErrSegmentCompacted.
func (s *Store) OpenSegment(id uint64) (*SegmentReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, seg := range s.segments {
		if seg.id != id {
			continue
		}
		return openSegmentLocked(seg, i != len(s.segments)-1)
	}
	return nil, fmt.Errorf("%w: segment %d", ErrSegmentCompacted, id)
}

// OpenSegments opens one consistent snapshot of every segment: all
// handles and sizes are captured under a single lock acquisition, so the
// set reflects exactly the records committed at one instant.
func (s *Store) OpenSegments() ([]*SegmentReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*SegmentReader, 0, len(s.segments))
	for i, seg := range s.segments {
		r, err := openSegmentLocked(seg, i != len(s.segments)-1)
		if err != nil {
			for _, r := range out {
				r.Close()
			}
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func openSegmentLocked(seg *segment, sealed bool) (*SegmentReader, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrSegmentCompacted, seg.path)
		}
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	return &SegmentReader{f: f, info: SegmentInfo{
		ID:      seg.id,
		Path:    seg.path,
		BaseSeq: seg.baseSeq,
		Records: seg.records,
		Size:    seg.size,
		Sealed:  sealed,
		Blocks:  seg.blocks,
		Plain:   seg.plain,
	}}, nil
}

// Info returns the segment metadata captured at open time.
func (r *SegmentReader) Info() SegmentInfo { return r.info }

// Close releases the snapshot's file handle. Safe to call repeatedly.
func (r *SegmentReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// fingerprintSample is how much of each end of a segment the fingerprint
// hashes. Appends and truncations change the size; compaction and
// compression rewrite the content wholesale — all of which move at least
// one of (head bytes, tail bytes, length).
const fingerprintSample = 4096

// Fingerprint is a cheap content identity for the snapshot: CRC32C over
// the first and last fingerprintSample bytes plus the committed size.
// Derived artifacts (the query engine's facts sidecars) record it so a
// stale or foreign sidecar is detected — and regenerated — rather than
// trusted, without re-reading the whole segment on every query.
//
// Head and tail are read through one buffer, which also carries the size
// after the tail, so a call allocates that buffer and nothing else.
func (r *SegmentReader) Fingerprint() (uint32, error) {
	var buf [fingerprintSample + 8]byte
	head := buf[:min(fingerprintSample, r.info.Size)]
	if _, err := r.f.ReadAt(head, 0); err != nil {
		return 0, fmt.Errorf("store: fingerprint: %w", err)
	}
	crc := crc32.Update(0, Castagnoli, head)
	tailStart := max(r.info.Size-fingerprintSample, 0)
	tail := buf[:r.info.Size-tailStart]
	if _, err := r.f.ReadAt(tail, tailStart); err != nil {
		return 0, fmt.Errorf("store: fingerprint: %w", err)
	}
	binary.LittleEndian.PutUint64(buf[len(tail):], uint64(r.info.Size))
	return crc32.Update(crc, Castagnoli, buf[:len(tail)+8]), nil
}

// frameWalk is the store's one pull-style walk over a snapshot's frames:
// each next yields a frame's byte offset and the record payloads it
// carries (one for a plain frame, many for a compressed block), valid
// until the following next. At the end of the snapshot next returns
// io.EOF, or ErrTornFrame when the bytes held fewer records than the
// snapshot committed — the file shrank underneath the reader. A walk
// that returned an error (io.EOF included) has released its read buffer
// and must not be read again; one abandoned earlier must be closed.
type frameWalk struct {
	r      *SegmentReader
	sc     *frameScanner
	single [1][]byte
	seen   uint64 // records yielded so far
}

// walk reads up to the snapshot's committed size, so frames appended
// after the snapshot stay invisible. It reads through ReadAt, so no file
// position is shared between walks of one reader.
func (r *SegmentReader) walk() *frameWalk {
	sr := io.NewSectionReader(r.f, segHeaderLen, r.info.Size-segHeaderLen)
	return &frameWalk{r: r, sc: newFrameScanner(sr, segHeaderLen)}
}

func (w *frameWalk) next() (int64, [][]byte, error) {
	info := &w.r.info
	payload, off, err := w.sc.next()
	if err == io.EOF {
		if w.seen == info.Records {
			w.close()
			return off, nil, io.EOF
		}
		err = fmt.Errorf("%w: %d of %d records", ErrTornFrame, w.seen, info.Records)
	}
	w.single[0] = payload
	payloads := w.single[:]
	if err == nil && isBlockPayload(payload) {
		payloads, err = decodeBlock(payload)
	}
	if err != nil {
		w.close()
		return off, nil, fmt.Errorf("store: %s at offset %d: %w", info.Path, off, err)
	}
	w.seen += uint64(len(payloads))
	return off, payloads, nil
}

// close releases the walk's read buffer. Calling it again does nothing.
func (w *frameWalk) close() { w.sc.release() }

// Frames walks every frame of the snapshot in order, handing fn the
// frame's byte offset and the record payloads it carries. Payloads are
// valid only during the callback. Returning a non-nil error stops the
// walk; a snapshot that ends short of its committed records reports
// ErrTornFrame.
func (r *SegmentReader) Frames(fn func(off int64, payloads [][]byte) error) error {
	w := r.walk()
	defer w.close()
	for {
		off, payloads, err := w.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(off, payloads); err != nil {
			return err
		}
	}
}

// FrameAt reads the single frame starting at off and returns its record
// payloads — how a query reads only the frames its sidecar says hold a
// match. The offset must land exactly on a frame boundary inside the
// snapshot; anything else fails the frame CRC (or bounds check) and
// errors.
func (r *SegmentReader) FrameAt(off int64) ([][]byte, error) {
	if off < segHeaderLen || off >= r.info.Size {
		return nil, fmt.Errorf("store: frame offset %d outside segment [%d, %d)", off, segHeaderLen, r.info.Size)
	}
	// The smallest bufio.Reader holds the length varint; ReadFrame reads
	// the rest of the frame through ReadAt into a buffer sized to it,
	// which the returned payload owns.
	var buf []byte
	payload, _, err := ReadFrame(bufio.NewReaderSize(io.NewSectionReader(r.f, off, r.info.Size-off), 16), &buf, maxFramePayload)
	if err != nil {
		return nil, fmt.Errorf("store: %s at offset %d: %w", r.info.Path, off, err)
	}
	if isBlockPayload(payload) {
		return decodeBlock(payload)
	}
	return [][]byte{payload}, nil
}
