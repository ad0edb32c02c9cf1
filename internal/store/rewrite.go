package store

import (
	"errors"
	"fmt"
	"os"
)

// errClosed is returned by a Compact or CompressSealed that starts, or
// reaches a swap, after Close has begun.
var errClosed = errors.New("store: closed")

// beginRewriteLocked claims the store's single rewrite slot for a
// Compact or CompressSealed. It reports false, with a nil error, when
// another rewrite holds the slot: the second call is a no-op rather than
// a race. Callers hold s.mu and, on true, defer s.endRewrite().
func (s *Store) beginRewriteLocked() (bool, error) {
	if s.closed {
		return false, errClosed
	}
	if s.rewriting {
		return false, nil
	}
	s.rewriting = true
	s.wg.Add(1)
	return true, nil
}

func (s *Store) endRewrite() {
	s.mu.Lock()
	s.rewriting = false
	s.mu.Unlock()
	s.wg.Done()
}

// rewrite copies the records of in — adjacent sealed segments, oldest
// first — into one segment of block frames and swaps it into the store
// in their place. With a nil keep every record is copied; otherwise
// record i, counted across in, is copied when keep[i] is set. Frames are
// walked without decoding records; the walk fails an input that ends
// short of its committed record count.
//
// Crash safety: the output is written to a temp file, fsynced, and
// renamed over the first input before the other inputs are unlinked. A
// crash between the rename and the unlinks leaves duplicate records (the
// next Compact removes them) but never loses one. Readers holding earlier
// snapshots keep their file handles on the old bytes. The swap fails
// with errClosed once Close has begun.
func (s *Store) rewrite(in []*SegmentReader, keep []bool) (*segment, error) {
	first := in[0].info
	tmpPath := first.Path + ".tmp"
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: rewrite temp: %w", err)
	}
	defer func() {
		f.Close()
		os.Remove(tmpPath) // no-op after a successful rename
	}()
	if _, err := f.Write(segHeader()); err != nil {
		return nil, fmt.Errorf("store: rewrite header: %w", err)
	}
	out := &segment{path: first.Path, id: first.ID, size: segHeaderLen}
	bw := newBlockWriter(f, out, s.opts.BlockRecords)
	defer bw.release()
	var read, kept uint64
	for _, r := range in {
		err := r.Frames(func(_ int64, payloads [][]byte) error {
			for _, p := range payloads {
				if keep == nil || keep[read] {
					if err := bw.add(p); err != nil {
						return err
					}
					kept++
				}
				read++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := bw.flush(); err != nil {
		return nil, err
	}
	if out.records != kept {
		return nil, fmt.Errorf("store: rewrite %s: wrote %d of %d records", first.Path, out.records, kept)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("store: rewrite sync: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	if err := os.Rename(tmpPath, out.path); err != nil {
		return nil, fmt.Errorf("store: rewrite swap: %w", err)
	}
	for _, r := range in[1:] {
		if err := os.Remove(r.info.Path); err != nil {
			return nil, fmt.Errorf("store: rewrite cleanup: %w", err)
		}
	}
	_ = SyncDir(s.dir) // best-effort directory durability for the swap
	// Splice out in place of the inputs. Only this rewrite removes
	// segments and rotation only appends, so the inputs are still
	// adjacent in s.segments.
	i := 0
	for s.segments[i].id != first.ID {
		i++
	}
	out.baseSeq = s.segments[i].baseSeq
	rest := s.segments[i+len(in):]
	s.segments = append(append(s.segments[:i:i], out), rest...)
	base := out.baseSeq + out.records
	for _, seg := range rest {
		seg.baseSeq = base
		base += seg.records
	}
	// The segment's bytes are new: sidecars derived from the inputs are
	// stale and must be rebuilt off this id.
	s.sealedLocked(out.id)
	return out, nil
}
