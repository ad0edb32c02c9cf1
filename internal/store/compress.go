package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"
)

// CompressStats reports one CompressSealed pass.
type CompressStats struct {
	// Segments is how many sealed segments were rewritten; Records how
	// many records they carry. BytesIn/BytesOut are their on-disk sizes
	// before and after.
	Segments int
	Records  uint64
	BytesIn  int64
	BytesOut int64
}

// CompressSealed rewrites every sealed segment still holding plain
// record frames into flate block frames of Options.BlockRecords records
// each. Record content, count, and order are untouched — only the frame
// envelope changes — so iterators, surveys, and the query engine read a
// compressed segment identically to a plain one (sidecar fingerprints
// change, which marks derived indexes stale for rebuild).
//
// Each segment is rewritten and swapped on its own, with the crash
// safety of every sealed-segment rewrite (see rewrite): a crash between
// segments leaves a mix of compressed and plain segments, all intact.
// Appends proceed concurrently — the active segment is never touched. A
// CompressSealed that finds another Compact or CompressSealed running is
// a no-op.
func (s *Store) CompressSealed() (CompressStats, error) {
	var stats CompressStats
	start := time.Now()

	s.mu.Lock()
	ok, err := s.beginRewriteLocked()
	if !ok {
		s.mu.Unlock()
		return stats, err
	}
	defer s.endRewrite()
	// Candidates: sealed segments (all but the last) with plain frames.
	// Their pointers stay valid while this rewrite holds the slot: only a
	// rewrite replaces segments, and rotation only appends.
	var todo []*segment
	for _, seg := range s.segments[:len(s.segments)-1] {
		if seg.plain > 0 && seg.records > 0 {
			todo = append(todo, seg)
		}
	}
	s.mu.Unlock()

	for _, seg := range todo {
		s.mu.Lock()
		var r *SegmentReader
		err := errClosed
		if !s.closed {
			r, err = openSegmentLocked(seg, true)
		}
		s.mu.Unlock()
		if err != nil {
			return stats, err
		}
		out, err := s.rewrite([]*SegmentReader{r}, nil)
		r.Close()
		if err != nil {
			return stats, err
		}
		stats.Segments++
		stats.Records += out.records
		stats.BytesIn += r.info.Size
		stats.BytesOut += out.size
	}
	if stats.Segments > 0 {
		s.met.compressions.Add(uint64(stats.Segments))
		s.met.compressSecs.ObserveSince(start)
		if saved := stats.BytesIn - stats.BytesOut; saved > 0 {
			s.met.compressSaved.Add(uint64(saved))
		}
	}
	return stats, nil
}

// blockFlushBytes flushes a pending block early once its raw payloads
// reach this size, keeping single frames (and decode memory) bounded
// regardless of record sizes.
const blockFlushBytes = 4 << 20

// maxPooledScratch caps the buffers blockScratchPool keeps: a block of
// ordinary records stays well under it, and the scratch of a rewrite
// that met one huge record is dropped rather than pinned.
const maxPooledScratch = blockFlushBytes

// blockScratch is the reusable state of block encoding: the pending
// block's raw record stream, a flate writer and the buffer it compresses
// into, and the frame. A rewrite takes one from blockScratchPool and
// returns it when done. It is not held on the Store, so an idle store
// keeps none of it live.
type blockScratch struct {
	raw   []byte
	comp  bytes.Buffer
	zw    *flate.Writer
	frame []byte
}

var blockScratchPool = sync.Pool{New: func() any {
	zw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	return &blockScratch{zw: zw}
}}

// blockWriter batches record payloads into compressed block frames,
// maintaining the destination segment's metadata (record count, size,
// block count) as it goes. Payloads are appended, length-prefixed,
// straight into the scratch's raw buffer, and each block is compressed
// by the one reused flate writer, so a steady-state rewrite allocates
// nothing per record or per block. The bytes written are exactly those
// of a fresh flate writer per block.
type blockWriter struct {
	f            *os.File
	seg          *segment
	blockRecords int

	*blockScratch
	count        int // records in raw
	payloadBytes int // their payload bytes, without length prefixes
}

func newBlockWriter(f *os.File, seg *segment, blockRecords int) *blockWriter {
	sc := blockScratchPool.Get().(*blockScratch)
	sc.raw = sc.raw[:0]
	return &blockWriter{f: f, seg: seg, blockRecords: blockRecords, blockScratch: sc}
}

// release returns the scratch to the pool, unless a buffer grew past
// maxPooledScratch. The writer is unusable afterwards.
func (bw *blockWriter) release() {
	sc := bw.blockScratch
	bw.blockScratch = nil
	if cap(sc.raw) <= maxPooledScratch && sc.comp.Cap() <= maxPooledScratch && cap(sc.frame) <= maxPooledScratch {
		blockScratchPool.Put(sc)
	}
}

// add appends one record payload to the pending block and flushes a
// full one. payload may be reused by the caller once add returns.
func (bw *blockWriter) add(payload []byte) error {
	bw.raw = AppendString(bw.raw, payload)
	bw.count++
	bw.payloadBytes += len(payload)
	if bw.count >= bw.blockRecords || bw.payloadBytes >= blockFlushBytes {
		return bw.flush()
	}
	return nil
}

// flush writes the pending block as one frame: the block header and the
// flate stream go into the reused comp buffer, which is then framed into
// the reused frame buffer.
func (bw *blockWriter) flush() error {
	if bw.count == 0 {
		return nil
	}
	if len(bw.raw) > maxBlockRaw {
		return fmt.Errorf("%w: %d raw bytes", ErrBadBlock, len(bw.raw))
	}
	c := &bw.comp
	c.Reset()
	hdr := append(c.AvailableBuffer(), blockKind)
	hdr = binary.AppendUvarint(hdr, uint64(bw.count))
	c.Write(binary.AppendUvarint(hdr, uint64(len(bw.raw))))
	bw.zw.Reset(c)
	if _, err := bw.zw.Write(bw.raw); err != nil {
		return err
	}
	if err := bw.zw.Close(); err != nil {
		return err
	}
	bw.frame = AppendFrame(bw.frame[:0], c.Bytes())
	if _, err := bw.f.Write(bw.frame); err != nil {
		return fmt.Errorf("store: compress write: %w", err)
	}
	bw.seg.size += int64(len(bw.frame))
	bw.seg.records += uint64(bw.count)
	bw.seg.blocks++
	bw.raw = bw.raw[:0]
	bw.count, bw.payloadBytes = 0, 0
	return nil
}
