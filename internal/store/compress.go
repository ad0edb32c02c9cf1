package store

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
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

func (cs CompressStats) String() string {
	return fmt.Sprintf("compressed %d sealed segments (%d records): %d -> %d bytes",
		cs.Segments, cs.Records, cs.BytesIn, cs.BytesOut)
}

// CompressSealed rewrites every sealed segment still holding plain
// record frames into flate block frames of Options.BlockRecords records
// each. Record content, count, and order are untouched — only the frame
// envelope changes — so iterators, surveys, and the query engine read a
// compressed segment identically to a plain one (sidecar fingerprints
// change, which marks derived indexes stale for rebuild).
//
// The segments are rewritten on min(GOMAXPROCS, segments) workers. Each
// worker holds one block scratch for the whole pass and claims segments
// one at a time; each segment is rewritten and swapped on its own, with
// the crash safety of every sealed-segment rewrite (see rewrite), so a
// crash mid-pass leaves a mix of compressed and plain segments, all
// intact. The first error wins: no worker claims a segment after it,
// and every worker has returned before CompressSealed does. Seal hooks
// for the rewritten segments are queued in the order their swaps
// complete. Appends proceed concurrently — the active segment is never
// touched. A CompressSealed that finds another Compact or CompressSealed
// running is a no-op.
func (s *Store) CompressSealed() (CompressStats, error) {
	start := time.Now()

	s.mu.Lock()
	ok, err := s.beginRewriteLocked()
	if !ok {
		s.mu.Unlock()
		return CompressStats{}, err
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

	p := &compressPass{s: s, todo: todo}
	workers := min(runtime.GOMAXPROCS(0), len(todo))
	p.wg.Add(workers)
	for range workers {
		go p.work()
	}
	p.wg.Wait()

	stats := p.stats
	if stats.Segments > 0 {
		s.met.compressions.Add(uint64(stats.Segments))
		s.met.compressSecs.ObserveSince(start)
		if saved := stats.BytesIn - stats.BytesOut; saved > 0 {
			s.met.compressSaved.Add(uint64(saved))
		}
	}
	return stats, p.err
}

// compressPass is the state CompressSealed's workers share.
type compressPass struct {
	s    *Store
	todo []*segment
	wg   sync.WaitGroup

	mu    sync.Mutex // guards the fields below
	next  int        // index in todo of the next unclaimed segment
	err   error      // the first error; nothing is claimed after it
	stats CompressStats
}

// claim hands out the next segment to rewrite, or nil once every one is
// claimed or a rewrite has failed.
func (p *compressPass) claim() *segment {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil || p.next == len(p.todo) {
		return nil
	}
	p.next++
	return p.todo[p.next-1]
}

// work is one worker: it rewrites claimed segments with one block
// scratch until claim runs dry.
func (p *compressPass) work() {
	defer p.wg.Done()
	sc := getBlockScratch()
	defer sc.release()
	for seg := p.claim(); seg != nil; seg = p.claim() {
		in, out, err := p.s.compressSegment(seg, sc)
		p.mu.Lock()
		if out != nil {
			p.stats.Segments++
			p.stats.Records += out.records
			p.stats.BytesIn += in
			p.stats.BytesOut += out.size
		}
		if err != nil && p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
	}
}

// compressSegment rewrites one sealed segment into block frames with
// sc, returning its size before and the swapped-in segment (nil when
// the swap did not happen). An error with a non-nil segment means the
// swap happened but its directory sync failed.
func (s *Store) compressSegment(seg *segment, sc *blockScratch) (int64, *segment, error) {
	s.mu.Lock()
	var r *SegmentReader
	err := errClosed
	if !s.closed {
		r, err = openSegmentLocked(seg, true)
	}
	s.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	defer r.Close()
	out, err := s.rewrite([]*SegmentReader{r}, nil, sc)
	return r.info.Size, out, err
}

// blockFlushBytes flushes a pending block early once its raw payloads
// reach this size, keeping single frames (and decode memory) bounded
// regardless of record sizes.
const blockFlushBytes = 4 << 20

// maxPooledScratch caps the output buffer blockScratchPool keeps: a
// block of ordinary records compresses well under it, and the scratch
// of a rewrite that met one huge incompressible record is dropped
// rather than pinned.
const maxPooledScratch = blockFlushBytes

// frameHeadroom is the space a block frame reserves in front of its
// flate stream for what is only known once the stream is closed: the
// frame's length varint and the block header (kind byte, record count
// and raw length varints).
const frameHeadroom = 1 + 3*binary.MaxVarintLen64

// blockScratch is the reusable state of block encoding: a flate writer,
// the buffer the pending frame is built in, and the length prefix of
// the record being streamed. The prefix lives here rather than on the
// stack because a slice passed to flate.Writer.Write escapes, which
// would cost one allocation per record. A rewrite (one per
// CompressSealed worker) takes a scratch from blockScratchPool and
// returns it when done; it is not held on the Store, so an idle store
// keeps none of it live.
type blockScratch struct {
	zw     *flate.Writer
	out    []byte // frameHeadroom bytes, then the flate stream
	prefix [binary.MaxVarintLen64]byte
}

var blockScratchPool = sync.Pool{New: func() any {
	zw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err) // BestSpeed is a valid level
	}
	return &blockScratch{zw: zw}
}}

func getBlockScratch() *blockScratch { return blockScratchPool.Get().(*blockScratch) }

// release returns the scratch to the pool, unless its output buffer
// grew past maxPooledScratch.
func (sc *blockScratch) release() {
	if cap(sc.out) <= maxPooledScratch {
		blockScratchPool.Put(sc)
	}
}

// Write appends the flate stream to the frame under construction.
func (sc *blockScratch) Write(p []byte) (int, error) {
	sc.out = append(sc.out, p...)
	return len(p), nil
}

// blockWriter batches record payloads into compressed block frames,
// maintaining the destination segment's metadata (record count, size,
// block count) as it goes. Each length-prefixed payload is streamed
// straight into the scratch's flate writer, whose output lands behind
// the headroom of the scratch's frame buffer; flush fills the headroom
// in and writes the frame with one Write. Nothing is allocated per
// record or per block once the scratch's buffer has grown, and the
// bytes written are exactly those of a fresh flate writer compressing
// each block's raw stream in one call: BestSpeed output does not depend
// on how the input is split across Writes.
type blockWriter struct {
	f            *os.File
	seg          *segment
	blockRecords int
	sc           *blockScratch

	count        int // records in the pending block
	rawLen       int // its raw stream bytes, length prefixes included
	payloadBytes int // its payload bytes, without length prefixes
}

// add streams one record payload into the pending block and flushes a
// full one. payload may be reused by the caller once add returns. A
// block whose raw stream would pass maxBlockRaw fails.
func (bw *blockWriter) add(payload []byte) error {
	sc := bw.sc
	n := binary.PutUvarint(sc.prefix[:], uint64(len(payload)))
	if bw.rawLen+n+len(payload) > maxBlockRaw {
		return fmt.Errorf("%w: %d raw bytes", ErrBadBlock, bw.rawLen+n+len(payload))
	}
	if bw.count == 0 {
		sc.out = append(sc.out[:0], make([]byte, frameHeadroom)...)
		sc.zw.Reset(sc)
	}
	if _, err := sc.zw.Write(sc.prefix[:n]); err != nil {
		return err
	}
	if _, err := sc.zw.Write(payload); err != nil {
		return err
	}
	bw.count++
	bw.rawLen += n + len(payload)
	bw.payloadBytes += len(payload)
	if bw.count >= bw.blockRecords || bw.payloadBytes >= blockFlushBytes {
		return bw.flush()
	}
	return nil
}

// flush closes the pending block's flate stream and writes the block as
// one frame: length varint and block header filled in right-aligned in
// the headroom, the stream, then the CRC32C of header and stream.
func (bw *blockWriter) flush() error {
	if bw.count == 0 {
		return nil
	}
	sc := bw.sc
	if err := sc.zw.Close(); err != nil {
		return err
	}
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = blockKind
	hn := 1 + binary.PutUvarint(hdr[1:], uint64(bw.count))
	hn += binary.PutUvarint(hdr[hn:], uint64(bw.rawLen))
	var size [binary.MaxVarintLen64]byte
	sn := binary.PutUvarint(size[:], uint64(hn+len(sc.out)-frameHeadroom))
	start := frameHeadroom - hn - sn
	copy(sc.out[start:], size[:sn])
	copy(sc.out[start+sn:], hdr[:hn])
	sc.out = binary.LittleEndian.AppendUint32(sc.out, crc32.Checksum(sc.out[start+sn:], Castagnoli))
	frame := sc.out[start:]
	if _, err := bw.f.Write(frame); err != nil {
		return fmt.Errorf("store: compress write: %w", err)
	}
	bw.seg.size += int64(len(frame))
	bw.seg.records += uint64(bw.count)
	bw.seg.blocks++
	bw.count, bw.rawLen, bw.payloadBytes = 0, 0, 0
	return nil
}
