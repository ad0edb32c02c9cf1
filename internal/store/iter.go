package store

import (
	"fmt"
	"io"
)

// Iterator streams records oldest-first over one snapshot of the store:
// the SegmentReaders OpenSegments captured at one instant, so a record
// appended after Iter() is not part of it, and the held file handles
// keep a concurrent compaction's renames and unlinks from pulling bytes
// away. Memory stays bounded — one frame (or block) at a time — and each
// segment's handle is released once walked. Not safe for concurrent use;
// create one per goroutine and Close it when done.
type Iterator struct {
	segs    []*SegmentReader // segments still to walk; segs[0] is current
	walk    *frameWalk       // segs[0]'s walk, nil until started
	off     int64            // offset of the frame pending came from
	pending [][]byte         // payloads of that frame not yet decoded
	rec     *Record
	err     error
}

// Iter returns an iterator over every record committed before the call.
func (s *Store) Iter() *Iterator {
	segs, err := s.OpenSegments()
	return &Iterator{segs: segs, err: err}
}

// IterNewestSegment iterates only the newest non-empty segment — the
// serve warm-start path, which wants the most recently written records
// without walking the whole store.
func (s *Store) IterNewestSegment() *Iterator {
	it := s.Iter()
	keep := len(it.segs) - 1
	for keep > 0 && it.segs[keep].info.Records == 0 {
		keep--
	}
	for i, r := range it.segs {
		if i != keep {
			r.Close()
		}
	}
	if keep >= 0 {
		it.segs = it.segs[keep : keep+1]
	}
	return it
}

// Next advances to the next record, reporting false at the end of the
// snapshot or on error (check Err).
func (it *Iterator) Next() bool {
	for it.err == nil {
		if len(it.pending) > 0 {
			rec, err := decodeRecord(it.pending[0])
			it.pending = it.pending[1:]
			if err != nil {
				it.err = fmt.Errorf("store: %s at offset %d: %w", it.segs[0].info.Path, it.off, err)
				return false
			}
			it.rec = rec
			return true
		}
		if len(it.segs) == 0 {
			return false
		}
		if it.walk == nil {
			it.walk = it.segs[0].walk()
		}
		var err error
		it.off, it.pending, err = it.walk.next()
		if err == io.EOF {
			it.segs[0].Close()
			it.segs, it.walk = it.segs[1:], nil
		} else if err != nil {
			it.err = err
		}
	}
	return false
}

// Record returns the record Next advanced to. Valid until the next call
// to Next; the caller owns it (each record is freshly decoded).
func (it *Iterator) Record() *Record { return it.rec }

// Err reports the first error the iterator hit, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases every file handle the snapshot still holds. Safe to
// call repeatedly.
func (it *Iterator) Close() error {
	if it.walk != nil {
		it.walk.close()
	}
	closeReaders(it.segs)
	it.segs, it.walk, it.pending = nil, nil, nil
	return nil
}
