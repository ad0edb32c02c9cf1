package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// Compact merges every sealed segment into one, keeping only the newest
// record per domain (later appends win). Appends proceed concurrently:
// the active segment is first rotated so the whole backlog is sealed,
// then merged outside the store lock.
//
// Crash safety: the merged segment is written to a temp file, fsynced,
// and renamed over the oldest input before the remaining inputs are
// unlinked. A crash between the rename and the unlinks leaves duplicate
// records (the next compaction removes them) but never loses a record
// that survived its frame's CRC. Record sequence numbers renumber after
// compaction.
func (s *Store) Compact() (CompactStats, error) {
	var stats CompactStats
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return stats, fmt.Errorf("store: compact on closed store")
	}
	if s.compactBusy {
		// Another compaction (manual or auto) is already running; this
		// one is a no-op rather than a data race.
		s.mu.Unlock()
		return stats, nil
	}
	s.compactBusy = true
	// Seal the current backlog so the whole merge input is immutable.
	active := s.segments[len(s.segments)-1]
	if active.records > 0 {
		if err := s.rotateLocked(); err != nil {
			s.compactBusy = false
			s.mu.Unlock()
			return stats, err
		}
	}
	snap, err := s.snapshotLocked()
	s.mu.Unlock()
	if err != nil {
		s.clearCompactBusy()
		return stats, err
	}
	defer func() {
		for i := range snap {
			if snap[i].f != nil {
				snap[i].f.Close()
			}
		}
		s.clearCompactBusy()
	}()
	sealed := snap[:len(snap)-1] // the fresh active segment stays out

	if len(sealed) == 0 {
		return stats, nil
	}
	stats.SegmentsIn = len(sealed)
	for i := range sealed {
		stats.BytesIn += sealed[i].size
	}

	// Pass 1: newest frame per domain, by sealed-set frame ordinal.
	winner := make(map[string]uint64)
	var ordinal uint64
	err = scanSealed(sealed, func(_ []byte, domain string) error {
		winner[domain] = ordinal
		ordinal++
		return nil
	})
	if err != nil {
		return stats, err
	}
	total := ordinal

	// Pass 2: copy winning frames, in order, into the merged segment.
	tmpPath := filepath.Join(s.dir, "compact.tmp")
	merged, err := writeMerged(tmpPath, sealed, winner, s.opts, &stats)
	if err != nil {
		os.Remove(tmpPath)
		return stats, err
	}
	stats.Dropped = total - stats.Kept

	// Swap: rename over the oldest input, unlink the rest, splice the
	// in-memory metadata. The store lock is held so appends and new
	// snapshots see a consistent view.
	s.mu.Lock()
	defer s.mu.Unlock()
	firstPath := s.segments[0].path
	firstID := s.segments[0].id
	if err := os.Rename(tmpPath, firstPath); err != nil {
		return stats, fmt.Errorf("store: compact swap: %w", err)
	}
	for i := 1; i < len(sealed); i++ {
		if err := os.Remove(s.segments[i].path); err != nil {
			return stats, fmt.Errorf("store: compact cleanup: %w", err)
		}
	}
	if d, derr := os.Open(s.dir); derr == nil {
		_ = d.Sync() // best-effort directory durability for the swap
		d.Close()
	}
	merged.path = firstPath
	merged.id = firstID
	rest := s.segments[len(sealed):]
	segs := append([]*segment{merged}, rest...)
	base := merged.records
	for _, seg := range rest {
		seg.baseSeq = base
		base += seg.records
	}
	s.segments = segs
	s.met.compactions.Inc()
	s.met.compactSecs.ObserveSince(start)
	// The merged segment's bytes are new — derived sidecars for the old
	// inputs are stale and must be rebuilt off this id.
	s.sealedLocked(merged.id)
	return stats, nil
}

func (s *Store) clearCompactBusy() {
	s.mu.Lock()
	s.compactBusy = false
	s.mu.Unlock()
}

// scanSealed walks every record of the sealed snapshot in order —
// expanding compressed blocks — handing each record payload and its
// decoded domain to fn.
func scanSealed(sealed []iterSegment, fn func(payload []byte, domain string) error) error {
	for i := range sealed {
		seg := &sealed[i]
		if _, err := seg.f.Seek(segHeaderLen, 0); err != nil {
			return fmt.Errorf("store: compact seek: %w", err)
		}
		sc := newFrameScanner(io.LimitReader(seg.f, seg.size-segHeaderLen), segHeaderLen)
		var n uint64
		for n < seg.records {
			payload, off, err := sc.next()
			if err != nil {
				return fmt.Errorf("store: compact scan %s at %d: %w", seg.path, off, err)
			}
			payloads := [][]byte{payload}
			if isBlockPayload(payload) {
				if payloads, err = decodeBlock(payload); err != nil {
					return fmt.Errorf("store: compact scan %s at %d: %w", seg.path, off, err)
				}
			}
			for _, p := range payloads {
				rec, err := decodeRecord(p)
				if err != nil {
					return fmt.Errorf("store: compact scan %s at %d: %w", seg.path, off, err)
				}
				if err := fn(p, rec.Domain); err != nil {
					return err
				}
				n++
			}
		}
	}
	return nil
}

// writeMerged writes the winning frames to tmpPath and returns the new
// segment's metadata (path/id are patched in by the caller at swap).
// Under Options.Compress the merged output is written as block frames
// directly, so a compaction never decompresses a corpus only to leave it
// plain again.
func writeMerged(tmpPath string, sealed []iterSegment, winner map[string]uint64, opts Options, stats *CompactStats) (*segment, error) {
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: compact temp: %w", err)
	}
	defer f.Close()
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic[:])
	hdr[4] = segVersion
	if _, err := f.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("store: compact header: %w", err)
	}
	merged := &segment{size: segHeaderLen}
	var bw *blockWriter
	if opts.Compress {
		bw = newBlockWriter(f, merged, opts.BlockRecords, opts.IndexEvery)
	}
	var ordinal uint64
	var frame []byte
	err = scanSealed(sealed, func(payload []byte, domain string) error {
		keep := winner[domain] == ordinal
		ordinal++
		if !keep {
			return nil
		}
		stats.Kept++
		if bw != nil {
			return bw.add(payload)
		}
		frame = appendFrame(frame[:0], payload)
		if _, err := f.Write(frame); err != nil {
			return fmt.Errorf("store: compact write: %w", err)
		}
		if merged.records%uint64(opts.IndexEvery) == 0 {
			merged.index = append(merged.index, indexEntry{seq: merged.records, off: merged.size})
		}
		merged.size += int64(len(frame))
		merged.records++
		merged.plain++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if bw != nil {
		if err := bw.flush(); err != nil {
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("store: compact sync: %w", err)
	}
	stats.BytesOut = merged.size
	return merged, nil
}
