package store

import (
	"fmt"
	"os"
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

// blockWriter batches record payloads into compressed block frames,
// maintaining the destination segment's metadata (record count, size,
// block count) as it goes.
type blockWriter struct {
	f            *os.File
	seg          *segment
	blockRecords int

	batch      [][]byte
	batchBytes int
	frame      []byte
}

func newBlockWriter(f *os.File, seg *segment, blockRecords int) *blockWriter {
	return &blockWriter{f: f, seg: seg, blockRecords: blockRecords}
}

// add queues one record payload (copied) and flushes a full block.
func (bw *blockWriter) add(payload []byte) error {
	// Copy: callers reuse payload memory across frames.
	bw.batch = append(bw.batch, append([]byte(nil), payload...))
	bw.batchBytes += len(payload)
	if len(bw.batch) >= bw.blockRecords || bw.batchBytes >= blockFlushBytes {
		return bw.flush()
	}
	return nil
}

// flush writes the pending batch as one block frame.
func (bw *blockWriter) flush() error {
	if len(bw.batch) == 0 {
		return nil
	}
	payload, err := appendBlock(nil, bw.batch)
	if err != nil {
		return err
	}
	bw.frame = AppendFrame(bw.frame[:0], payload)
	if _, err := bw.f.Write(bw.frame); err != nil {
		return fmt.Errorf("store: compress write: %w", err)
	}
	bw.seg.size += int64(len(bw.frame))
	bw.seg.records += uint64(len(bw.batch))
	bw.seg.blocks++
	bw.batch = bw.batch[:0]
	bw.batchBytes = 0
	return nil
}
