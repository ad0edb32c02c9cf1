package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Options tunes a Store. The zero value picks production defaults; tests
// shrink SegmentBytes to exercise rotation and compaction. Sealed
// segments are rewritten only by an explicit Compact or CompressSealed,
// and appends are durable after Sync or Close.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment;
	// <= 0 means 64 MiB.
	SegmentBytes int64
	// BlockRecords is the records-per-block target of the flate block
	// frames Compact and CompressSealed write; <= 0 means 256.
	BlockRecords int
	// Metrics is the observability registry (store.* metrics, DESIGN.md
	// §5c naming). Nil means a private registry reachable via Metrics().
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.BlockRecords <= 0 {
		o.BlockRecords = 256
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// segment is the in-memory state of one on-disk segment file.
type segment struct {
	path    string
	id      uint64
	baseSeq uint64 // store-wide seq of the segment's first record
	records uint64
	size    int64  // committed bytes (header + intact frames)
	plain   uint64 // plain record frames (compression candidates)
	blocks  uint64 // compressed block frames
}

// Store is an append-only, segmented, CRC-checked record log with
// crash-safe recovery. One goroutine may append while any number
// iterate; all methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex // guards the fields from segments to frame
	segments  []*segment
	active    *os.File
	unsynced  int
	closed    bool            // set when Close begins; nothing starts after it
	recovered int64           // bytes truncated from a torn tail at Open
	rewriting bool            // a Compact or CompressSealed is running
	onSeal    func(id uint64) // see SetOnSeal
	sealQueue []uint64        // seal-hook ids the worker has yet to run
	sealBusy  bool            // the seal worker is running
	// payload and frame are Append's encode buffers, reused under mu.
	payload, frame []byte
	// wg counts the running rewrite and the seal worker. Add is called
	// only under mu while !closed, so Close's Wait never races an Add.
	wg sync.WaitGroup

	reg *obs.Registry
	met storeMetrics
}

// storeMetrics are the store.* observability handles.
type storeMetrics struct {
	appends       *obs.Counter
	appendSeconds *obs.Histogram
	frameBytes    *obs.Histogram
	rotations     *obs.Counter
	compactions   *obs.Counter
	compactSecs   *obs.Histogram
	truncated     *obs.Counter
	compressions  *obs.Counter
	compressSecs  *obs.Histogram
	compressSaved *obs.Counter
}

func (m *storeMetrics) register(reg *obs.Registry) {
	m.appends = reg.Counter("store.appends")
	m.appendSeconds = reg.Histogram("store.append.seconds", obs.DurationBounds())
	m.frameBytes = reg.Histogram("store.frame.bytes", obs.SizeBounds())
	m.rotations = reg.Counter("store.segment.rotations")
	m.compactions = reg.Counter("store.compactions")
	m.compactSecs = reg.Histogram("store.compact.seconds", obs.DurationBounds())
	m.truncated = reg.Counter("store.recovery.truncated.bytes")
	m.compressions = reg.Counter("store.compressions")
	m.compressSecs = reg.Histogram("store.compress.seconds", obs.DurationBounds())
	m.compressSaved = reg.Counter("store.compress.saved.bytes")
}

const segSuffix = ".seg"

// maxAppendBuf caps the encode buffers a Store keeps between appends;
// a typical record frame is a few KiB.
const maxAppendBuf = 64 << 10

func segPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", id, segSuffix))
}

// Open opens (creating if needed) the store in dir, scanning every
// segment to rebuild its record and frame counts. A torn tail on
// the newest segment — the signature of a crash mid-append — is
// truncated away; corruption anywhere else is an error.
func Open(dir string, opts Options) (*Store, error) {
	o := opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, opts: o, reg: o.Metrics}
	s.met.register(s.reg)

	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		ids = []uint64{1}
		if err := writeSegmentHeader(segPath(dir, 1)); err != nil {
			return nil, err
		}
	}
	var baseSeq uint64
	for i, id := range ids {
		seg, truncated, err := scanSegment(segPath(dir, id), id, i == len(ids)-1)
		if err != nil {
			return nil, err
		}
		seg.baseSeq = baseSeq
		baseSeq += seg.records
		s.segments = append(s.segments, seg)
		s.recovered += truncated
	}
	if s.recovered > 0 {
		s.met.truncated.Add(uint64(s.recovered))
	}

	last := s.segments[len(s.segments)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("store: open active segment: %w", err)
	}
	if _, err := f.Seek(last.size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek active segment: %w", err)
	}
	s.active = f

	s.reg.GaugeFunc("store.bytes", func() float64 { return float64(s.Bytes()) })
	s.reg.GaugeFunc("store.segments", func() float64 { return float64(s.Segments()) })
	s.reg.GaugeFunc("store.records", func() float64 { return float64(s.Len()) })
	return s, nil
}

// listSegments returns the sorted segment ids present in dir.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// segHeader returns the header every segment file starts with.
func segHeader() []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic[:])
	hdr[4] = segVersion
	return hdr
}

func writeSegmentHeader(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write(segHeader()); err != nil {
		f.Close()
		return fmt.Errorf("store: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync segment header: %w", err)
	}
	return f.Close()
}

// scanSegment walks one segment file, validating every frame and
// counting its records. When isLast (the append target), a torn
// tail — including a half-written header on a freshly created file — is
// truncated; on sealed segments any damage is fatal.
func scanSegment(path string, id uint64, isLast bool) (*segment, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: stat segment: %w", err)
	}
	fileSize := fi.Size()

	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || [4]byte(hdr[:4]) != segMagic || hdr[4] != segVersion {
		if isLast && fileSize < segHeaderLen {
			// Crash between create and header write: reset the file.
			if err := os.Truncate(path, 0); err != nil {
				return nil, 0, fmt.Errorf("store: reset torn header: %w", err)
			}
			if err := rewriteHeader(path); err != nil {
				return nil, 0, err
			}
			return &segment{path: path, id: id, size: segHeaderLen}, fileSize, nil
		}
		return nil, 0, fmt.Errorf("store: %s: bad segment header", path)
	}

	seg := &segment{path: path, id: id, size: segHeaderLen}
	sc := newFrameScanner(f, segHeaderLen)
	defer sc.release()
	for {
		payload, start, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if isLast {
				// Torn tail (or tail corruption indistinguishable from
				// one): truncate to the last intact frame.
				if terr := os.Truncate(path, start); terr != nil {
					return nil, 0, fmt.Errorf("store: truncate torn tail: %w", terr)
				}
				return seg, fileSize - start, nil
			}
			return nil, 0, fmt.Errorf("store: %s at offset %d: %w", path, start, err)
		}
		// Validate the payload decodes before committing to it; a frame
		// with a valid CRC but an undecodable record is corruption, not a
		// torn write, yet on the tail we still prefer recovery. Block
		// frames validate every record they carry, so a torn block drops
		// whole (recovery granularity is one frame either way).
		var count uint64
		if isBlockPayload(payload) {
			payloads, derr := decodeBlock(payload)
			if derr == nil {
				for _, p := range payloads {
					if _, derr = decodeRecord(p); derr != nil {
						break
					}
				}
			}
			if derr != nil {
				if isLast {
					if terr := os.Truncate(path, start); terr != nil {
						return nil, 0, fmt.Errorf("store: truncate bad tail block: %w", terr)
					}
					return seg, fileSize - start, nil
				}
				return nil, 0, fmt.Errorf("store: %s at offset %d: %w", path, start, derr)
			}
			count = uint64(len(payloads))
			seg.blocks++
		} else {
			if _, derr := decodeRecord(payload); derr != nil {
				if isLast {
					if terr := os.Truncate(path, start); terr != nil {
						return nil, 0, fmt.Errorf("store: truncate bad tail record: %w", terr)
					}
					return seg, fileSize - start, nil
				}
				return nil, 0, fmt.Errorf("store: %s at offset %d: %w", path, start, derr)
			}
			count = 1
			seg.plain++
		}
		seg.records += count
		seg.size = sc.off
	}
	return seg, 0, nil
}

func rewriteHeader(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: rewrite header: %w", err)
	}
	if _, err := f.Write(segHeader()); err != nil {
		f.Close()
		return fmt.Errorf("store: rewrite header: %w", err)
	}
	return f.Close()
}

// Len reports the number of stored records, including superseded
// duplicates not yet removed by compaction.
func (s *Store) Len() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, seg := range s.segments {
		n += seg.records
	}
	return n
}

// Segments reports how many segment files the store currently spans.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segments)
}

// Bytes reports the committed on-disk size across all segments.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.segments {
		n += seg.size
	}
	return n
}

// Append encodes rec and appends it to the active segment, rotating
// first when the segment is over the size threshold. The record is
// durable after the next Sync or Close.
//
// Encoding runs under s.mu into the payload and frame buffers the Store
// owns, so a steady-state append allocates nothing. Appenders are
// serialized anyway: the one sink or writer feeding a store appends in
// order. A buffer that grew past maxAppendBuf for one huge record is
// dropped after it.
func (s *Store) Append(rec *Record) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	active := s.segments[len(s.segments)-1]
	if active.size >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		active = s.segments[len(s.segments)-1]
	}
	s.payload = appendRecord(s.payload[:0], rec)
	s.frame = AppendFrame(s.frame[:0], s.payload)
	frame := s.frame
	if cap(s.payload) > maxAppendBuf || cap(s.frame) > maxAppendBuf {
		s.payload, s.frame = nil, nil
	}
	if _, err := s.active.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	active.size += int64(len(frame))
	active.records++
	active.plain++
	s.unsynced++
	s.met.appends.Inc()
	s.met.appendSeconds.ObserveSince(start)
	s.met.frameBytes.Observe(float64(len(frame)))
	return nil
}

// rotateLocked seals the active segment and starts a fresh one. Callers
// hold s.mu.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: seal segment: %w", err)
	}
	last := s.segments[len(s.segments)-1]
	id := last.id + 1
	path := segPath(s.dir, id)
	if err := writeSegmentHeader(path); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: open new segment: %w", err)
	}
	if _, err := f.Seek(segHeaderLen, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seek new segment: %w", err)
	}
	s.active = f
	s.segments = append(s.segments, &segment{
		path:    path,
		id:      id,
		baseSeq: last.baseSeq + last.records,
		size:    segHeaderLen,
	})
	s.met.rotations.Inc()
	// The previous active segment is now sealed: tell the seal hook (the
	// query engine builds sidecar indexes off it).
	s.sealedLocked(last.id)
	return nil
}

// SetOnSeal registers fn to be called with a segment id whenever that
// segment becomes sealed — by rotation — or a sealed segment's bytes are
// rewritten in place by Compact or CompressSealed. Derived artifacts
// keyed to a segment's content (the query engine's facts sidecars) hang
// off this hook to stay fresh without polling.
// Calls run one at a time, in the order the seals happen, on a single
// worker goroutine the store owns; Close waits for every queued call. A
// CompressSealed pass seals its rewritten segments as their swaps
// complete, which need not be segment order.
func (s *Store) SetOnSeal(fn func(id uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSeal = fn
}

// sealedLocked queues the seal hook for segment id, starting the seal
// worker if it is idle. Callers hold s.mu and have checked !s.closed.
func (s *Store) sealedLocked(id uint64) {
	if s.onSeal == nil {
		return
	}
	s.sealQueue = append(s.sealQueue, id)
	if !s.sealBusy {
		s.sealBusy = true
		s.wg.Add(1)
		go s.runSealHooks()
	}
}

// runSealHooks is the seal worker: it runs queued hook calls in FIFO
// order outside the lock and exits once the queue is empty.
func (s *Store) runSealHooks() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.sealQueue) > 0 {
		id, fn := s.sealQueue[0], s.onSeal
		s.sealQueue = s.sealQueue[1:]
		if fn == nil {
			continue
		}
		s.mu.Unlock()
		fn(id)
		s.mu.Lock()
	}
	s.sealBusy = false
}

// Dir reports the store's directory — sidecar artifacts (the query
// engine's facts sidecars) live alongside the segments they describe.
func (s *Store) Dir() string { return s.dir }

// syncLocked fsyncs the active segment. Callers hold s.mu.
func (s *Store) syncLocked() error {
	if s.unsynced == 0 {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.unsynced = 0
	return nil
}

// Sync makes every appended record durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

// Close syncs and closes the store. Appends and new rewrites fail from
// the moment it begins; a running Compact or CompressSealed stops at its
// next swap, and every queued seal hook has run before Close returns.
func (s *Store) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	if wasClosed {
		return nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.syncLocked()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// Domains streams every stored domain (duplicates included, oldest
// first) to fn until it returns false or the snapshot is exhausted. The
// whoiscrawl -resume path uses this to skip already-persisted domains.
func (s *Store) Domains(fn func(domain string) bool) error {
	it := s.Iter()
	defer it.Close()
	for it.Next() {
		if !fn(it.Record().Domain) {
			return it.Err()
		}
	}
	return it.Err()
}
