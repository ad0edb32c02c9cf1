package query

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/survey"
)

// Options configure an Engine.
type Options struct {
	// Workers bounds the parallel segment scans per query; <= 0 means
	// GOMAXPROCS.
	Workers int
	// NoRebuild serves a segment with a missing, stale, or corrupt
	// sidecar by full scan instead of rebuilding the sidecar first —
	// for read-only callers (and the differential gate, which must see
	// the degraded path, not a self-healed one).
	NoRebuild bool
	// Metrics receives the query.* instruments; nil uses obs.Default.
	Metrics *obs.Registry
}

// Engine answers predicates over a record store from one facts sidecar
// per sealed segment. Safe for concurrent use; all correctness rests on
// the store's snapshot semantics (readers hold fds), the fingerprint
// check before any sidecar is used, and the Pred.Match re-check of every
// record Scan decodes.
type Engine struct {
	st   *store.Store
	opts Options
	met  engineMetrics

	// cache holds one decoded sidecar per segment id across queries. It
	// is used only while its fingerprint matches the live segment's,
	// which every query computes afresh, so a hit can never serve a
	// rewritten segment's stale view: it only skips re-reading and
	// re-decoding bytes already validated against this exact
	// fingerprint. Sidecars are immutable once published.
	cacheMu sync.Mutex
	cache   map[uint64]*sidecar
}

func (e *Engine) cacheGet(id uint64, fp uint32) *sidecar {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	if sc := e.cache[id]; sc != nil && sc.fingerprint == fp {
		return sc
	}
	return nil
}

func (e *Engine) cachePut(sc *sidecar) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	e.cache[sc.segID] = sc
}

// cachePrune drops entries for segments compaction removed.
func (e *Engine) cachePrune(live map[uint64]bool) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	for id := range e.cache {
		if !live[id] {
			delete(e.cache, id)
		}
	}
}

type engineMetrics struct {
	queries     *obs.Counter
	seconds     *obs.Histogram
	pruned      *obs.Counter
	fromSidecar *obs.Counter
	fullScan    *obs.Counter
	rebuilds    *obs.Counter
	invalid     *obs.Counter
	fallbacks   *obs.Counter
	recordsIn   *obs.Counter
	recordsOut  *obs.Counter
}

func (m *engineMetrics) register(reg *obs.Registry) {
	m.queries = reg.Counter("query.queries")
	m.seconds = reg.Histogram("query.seconds", obs.DurationBounds())
	m.pruned = reg.Counter("query.segments.pruned")
	m.fromSidecar = reg.Counter("query.segments.sidecar")
	m.fullScan = reg.Counter("query.segments.fullscan")
	m.rebuilds = reg.Counter("query.sidecar.rebuilds")
	m.invalid = reg.Counter("query.sidecar.invalid")
	m.fallbacks = reg.Counter("query.fallbacks")
	m.recordsIn = reg.Counter("query.records.read")
	m.recordsOut = reg.Counter("query.records.matched")
}

// New builds an engine over st.
func New(st *store.Store, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	e := &Engine{st: st, opts: opts, cache: make(map[uint64]*sidecar)}
	e.met.register(opts.Metrics)
	return e
}

// AutoBuild hooks segment seals (rotation, compression, compaction) so
// sidecars are derived in the background the moment a segment's bytes
// stop moving. Errors are deliberately dropped: a failed build costs a
// future full scan, nothing more.
func (e *Engine) AutoBuild() {
	e.st.SetOnSeal(func(id uint64) { _, _ = e.BuildSegment(id) })
}

// BuildSegment (re)derives the sidecar for segment id unless a fresh one
// already exists. Reports whether it built, and treats a segment that was
// compacted away in the meantime as a no-op.
func (e *Engine) BuildSegment(id uint64) (bool, error) {
	r, err := e.st.OpenSegment(id)
	if err != nil {
		if errors.Is(err, store.ErrSegmentCompacted) {
			return false, nil
		}
		return false, err
	}
	defer r.Close()
	info := r.Info()
	if !info.Sealed {
		return false, nil
	}
	fp, err := r.Fingerprint()
	if err != nil {
		return false, err
	}
	if _, ok := e.load(info, fp); ok {
		return false, nil
	}
	if _, err := e.build(r); err != nil {
		return false, err
	}
	return true, nil
}

// BuildAll derives sidecars for every sealed segment that lacks a fresh
// one, removes the sidecars of segments compaction dropped, and removes
// the zone maps (.zm) and posting indexes (.idx) older builds wrote.
// Returns how many segments were (re)built.
func (e *Engine) BuildAll() (int, error) {
	built := 0
	live := make(map[uint64]bool)
	for _, info := range e.st.SegmentInfos() {
		live[info.ID] = true
		if !info.Sealed {
			continue
		}
		b, err := e.BuildSegment(info.ID)
		if err != nil {
			return built, err
		}
		if b {
			built++
		}
	}
	e.removeOrphans(live)
	return built, nil
}

// removeOrphans deletes sidecars whose segment no longer exists, and the
// sidecar files of older builds.
func (e *Engine) removeOrphans(live map[uint64]bool) {
	entries, err := os.ReadDir(e.st.Dir())
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		ext := filepath.Ext(name)
		id, err := strconv.ParseUint(strings.TrimSuffix(name, ext), 10, 64)
		if err != nil {
			continue
		}
		if ext == ".zm" || ext == ".idx" || ext == sidecarSuffix && !live[id] {
			_ = os.Remove(filepath.Join(e.st.Dir(), name))
		}
	}
}

// Stats describes how one query was executed.
type Stats struct {
	Segments    int    `json:"segments"`
	Pruned      int    `json:"pruned"`       // skipped: the sidecar rules out every record
	FromSidecar int    `json:"from_sidecar"` // rows matched on the sidecar
	FullScanned int    `json:"full_scanned"` // scanned frame by frame
	Rebuilt     int    `json:"rebuilt"`      // sidecars rebuilt in-line
	Fallbacks   int    `json:"fallbacks"`    // bad sidecar → full scan
	RecordsRead uint64 `json:"records_read"` // records decoded
	Matched     uint64 `json:"matched"`
}

// String renders the stats the way the CLIs log them.
func (st Stats) String() string {
	return fmt.Sprintf("segments=%d pruned=%d sidecar=%d fullscan=%d rebuilt=%d fallbacks=%d read=%d matched=%d",
		st.Segments, st.Pruned, st.FromSidecar, st.FullScanned, st.Rebuilt, st.Fallbacks, st.RecordsRead, st.Matched)
}

// segResult is how one segment answered a predicate: decoded records,
// or, for a survey answered from the sidecar, the matching rows of sc.
type segResult struct {
	sc      *sidecar
	rows    []int
	matches []*store.Record
	stats   Stats
	err     error
}

// Scan streams every record matching p to fn, in segment order and in
// record order within each segment (the same order a full Iter sees,
// minus non-matches). Segments are scanned in parallel across at most
// Options.Workers goroutines; fn itself is always called from the
// calling goroutine, serially.
func (e *Engine) Scan(p Pred, fn func(rec *store.Record) error) (Stats, error) {
	start := time.Now()
	results, stats, err := e.run(p, true)
	if err != nil {
		return stats, err
	}
	for i := range results {
		for _, rec := range results[i].matches {
			stats.Matched++
			if err := fn(rec); err != nil {
				return stats, err
			}
		}
	}
	e.recordStats(stats, start)
	return stats, nil
}

// Survey folds every record matching p into a fresh incremental survey:
// the whoissurvey -where and perfbench entry point. A sealed segment
// with a fresh sidecar is folded from the sidecar's rows, so no block
// is inflated and no record decoded.
func (e *Engine) Survey(p Pred) (*survey.Survey, Stats, error) {
	start := time.Now()
	results, stats, err := e.run(p, false)
	if err != nil {
		return nil, stats, err
	}
	sv := &survey.Survey{}
	for i := range results {
		res := &results[i]
		for _, row := range res.rows {
			sv.Add(res.sc.facts(row))
		}
		for _, rec := range res.matches {
			sv.Add(rec.Facts)
		}
		stats.Matched += uint64(len(res.rows) + len(res.matches))
	}
	e.recordStats(stats, start)
	return sv, stats, nil
}

// run answers p over one snapshot of every segment, across at most
// Options.Workers goroutines, and returns the per-segment results in
// segment order with their stats summed, all but Matched, which the
// caller counts. decode is Scan's mode: every match comes back as a
// decoded record.
func (e *Engine) run(p Pred, decode bool) ([]segResult, Stats, error) {
	e.met.queries.Inc()
	var stats Stats
	readers, err := e.st.OpenSegments()
	if err != nil {
		return nil, stats, err
	}
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	stats.Segments = len(readers)

	live := make(map[uint64]bool, len(readers))
	for _, r := range readers {
		live[r.Info().ID] = true
	}
	e.cachePrune(live)

	results := make([]segResult, len(readers))
	sem := make(chan struct{}, e.opts.Workers)
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r *store.SegmentReader) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = e.segment(r, p, decode)
		}(i, r)
	}
	wg.Wait()

	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, stats, res.err
		}
		stats.Pruned += res.stats.Pruned
		stats.FromSidecar += res.stats.FromSidecar
		stats.FullScanned += res.stats.FullScanned
		stats.Rebuilt += res.stats.Rebuilt
		stats.Fallbacks += res.stats.Fallbacks
		stats.RecordsRead += res.stats.RecordsRead
	}
	return results, stats, nil
}

func (e *Engine) recordStats(st Stats, start time.Time) {
	e.met.seconds.ObserveSince(start)
	e.met.pruned.Add(uint64(st.Pruned))
	e.met.fromSidecar.Add(uint64(st.FromSidecar))
	e.met.fullScan.Add(uint64(st.FullScanned))
	e.met.fallbacks.Add(uint64(st.Fallbacks))
	e.met.recordsIn.Add(st.RecordsRead)
	e.met.recordsOut.Add(st.Matched)
}

// segment answers p over one segment snapshot: pruned by its sidecar,
// matched on its sidecar's rows, or scanned in full, degrading toward
// the full scan on any sidecar problem, so a bad sidecar can cost time
// but never rows. With decode, the matching records are read from the
// frames that hold them; without it, the matching rows are returned.
func (e *Engine) segment(r *store.SegmentReader, p Pred, decode bool) segResult {
	var res segResult
	info := r.Info()
	if info.Records == 0 {
		return res
	}
	// The active segment has no sidecar (its bytes still move), and a
	// scan under the empty predicate decodes every record anyway.
	if !info.Sealed || decode && p.IsEmpty() {
		return e.fullScanSegment(r, p, res)
	}
	sc, err := e.sidecarFor(r, &res.stats)
	if err != nil {
		res.err = err
		return res
	}
	if sc == nil {
		return e.fullScanSegment(r, p, res)
	}
	if sc.prunes(p) {
		res.stats.Pruned++
		return res
	}
	rows := sc.match(p)
	if decode {
		matches, err := sc.read(r, rows, p)
		if err != nil {
			e.met.invalid.Inc()
			res.stats.Fallbacks++
			return e.fullScanSegment(r, p, res)
		}
		res.matches = matches
		res.stats.RecordsRead += uint64(len(matches))
	} else {
		res.sc, res.rows = sc, rows
	}
	res.stats.FromSidecar++
	return res
}

// sidecarFor resolves the sidecar of one sealed segment snapshot: the
// cached one if its fingerprint still matches, else the file if it
// describes this snapshot, else a rebuild. nil means scan the segment in
// full: the sidecar is missing, stale, foreign or corrupt and NoRebuild
// is set, or the rebuild failed.
func (e *Engine) sidecarFor(r *store.SegmentReader, st *Stats) (*sidecar, error) {
	info := r.Info()
	fp, err := r.Fingerprint()
	if err != nil {
		return nil, err
	}
	if sc := e.cacheGet(info.ID, fp); sc != nil {
		return sc, nil
	}
	sc, ok := e.load(info, fp)
	if !ok {
		if e.opts.NoRebuild {
			st.Fallbacks++
			return nil, nil
		}
		if sc, err = e.build(r); err != nil {
			st.Fallbacks++
			return nil, nil
		}
		st.Rebuilt++
	}
	e.cachePut(sc)
	return sc, nil
}

// load reads segment info.ID's sidecar file and checks that it describes
// the live snapshot. A missing file is normal for a young segment; a
// corrupt, stale or foreign one also bumps query.sidecar.invalid.
func (e *Engine) load(info store.SegmentInfo, fp uint32) (*sidecar, bool) {
	sc, err := loadSidecar(sidecarPath(e.st.Dir(), info.ID))
	if err == nil && sc.describes(info, fp) {
		return sc, true
	}
	if !errors.Is(err, fs.ErrNotExist) {
		e.met.invalid.Inc()
	}
	return nil, false
}

// build derives the sidecar from the snapshot in hand and writes it,
// durably and under a unique temp name, for later queries.
func (e *Engine) build(r *store.SegmentReader) (*sidecar, error) {
	sc, err := buildSidecar(r)
	if err != nil {
		return nil, err
	}
	if err := store.WriteFileSync(sidecarPath(e.st.Dir(), sc.segID), sc.encode()); err != nil {
		return nil, fmt.Errorf("query: write sidecar: %w", err)
	}
	e.met.rebuilds.Inc()
	return sc, nil
}

func (e *Engine) fullScanSegment(r *store.SegmentReader, p Pred, res segResult) segResult {
	res.stats.FullScanned++
	err := r.Frames(func(_ int64, payloads [][]byte) error {
		for _, payload := range payloads {
			rec, err := store.DecodeRecord(payload)
			if err != nil {
				return err
			}
			res.stats.RecordsRead++
			if p.Match(&rec.Facts) {
				res.matches = append(res.matches, rec)
			}
		}
		return nil
	})
	if err != nil {
		res.err = err
		res.matches = nil
	}
	return res
}

// FullScan is the trivially-correct reference executor: iterate every
// record, apply the predicate. The differential CI gate holds Scan to
// byte-identical results against this.
func (e *Engine) FullScan(p Pred, fn func(rec *store.Record) error) error {
	it := e.st.Iter()
	defer it.Close()
	for it.Next() {
		rec := it.Record()
		if p.Match(&rec.Facts) {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return it.Err()
}
