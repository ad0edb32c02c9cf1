package store

import (
	"fmt"
	"time"
)

// CompactStats reports one compaction's outcome.
type CompactStats struct {
	// SegmentsIn is how many sealed segments were merged; Kept and
	// Dropped count records copied forward vs. superseded duplicates
	// removed. BytesIn/BytesOut are the sealed sizes before and after.
	SegmentsIn int
	Kept       uint64
	Dropped    uint64
	BytesIn    int64
	BytesOut   int64
}

// Compact merges every sealed segment into one segment of flate block
// frames, keeping only the newest record per domain (later appends win).
// Appends proceed concurrently: the active segment is first rotated so
// the whole backlog is sealed — and the merged segment is never the
// append target — then merged outside the store lock. Crash safety is
// that of every sealed-segment rewrite (see rewrite). Record sequence
// numbers renumber after compaction. A Compact that finds another
// Compact or CompressSealed running is a no-op.
func (s *Store) Compact() (CompactStats, error) {
	var stats CompactStats
	start := time.Now()

	s.mu.Lock()
	ok, err := s.beginRewriteLocked()
	if !ok {
		s.mu.Unlock()
		return stats, err
	}
	defer s.endRewrite()
	if s.segments[len(s.segments)-1].records > 0 {
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			return stats, err
		}
	}
	sealed := s.segments[:len(s.segments)-1]
	in := make([]*SegmentReader, 0, len(sealed))
	for _, seg := range sealed {
		r, err := openSegmentLocked(seg, true)
		if err != nil {
			s.mu.Unlock()
			closeReaders(in)
			return stats, err
		}
		in = append(in, r)
	}
	s.mu.Unlock()
	defer closeReaders(in)
	if len(in) == 0 {
		return stats, nil
	}

	// Pass 1: the newest record ordinal per domain wins.
	winner := make(map[string]uint64)
	var total uint64
	for _, r := range in {
		stats.BytesIn += r.info.Size
		err := r.Frames(func(off int64, payloads [][]byte) error {
			for _, p := range payloads {
				rec, err := decodeRecord(p)
				if err != nil {
					return fmt.Errorf("store: compact %s at offset %d: %w", r.info.Path, off, err)
				}
				winner[rec.Domain] = total
				total++
			}
			return nil
		})
		if err != nil {
			return stats, err
		}
	}
	keep := make([]bool, total)
	for _, ord := range winner {
		keep[ord] = true
	}

	// Pass 2: copy the winners, in order, over the sealed segments.
	sc := getBlockScratch()
	defer sc.release()
	merged, err := s.rewrite(in, keep, sc)
	if err != nil {
		return stats, err
	}
	stats.SegmentsIn = len(in)
	stats.Kept = merged.records
	stats.Dropped = total - merged.records
	stats.BytesOut = merged.size
	s.met.compactions.Inc()
	s.met.compactSecs.ObserveSince(start)
	return stats, nil
}

func closeReaders(rs []*SegmentReader) {
	for _, r := range rs {
		r.Close()
	}
}
