package serve

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// metrics bundles the serving layer's obs handles. All hot-path updates
// are lock-free atomic operations; the parse-latency histogram replaces
// the bespoke ring buffer this package used to carry (the ring's
// pre-wrap window handling was subtle enough to grow a bug class of its
// own — fixed-bucket histograms cannot report unfilled slots, and their
// quantiles cover all traffic rather than the last N parses).
type metrics struct {
	hits          *obs.Counter
	misses        *obs.Counter
	coalesced     *obs.Counter
	shed          *obs.Counter
	parsed        *obs.Counter
	preloads      *obs.Counter
	invalidations *obs.Counter
	inFlight      *obs.Gauge
	latency       *obs.Histogram
}

// register creates the serving metrics in reg under the serve.* names
// documented in DESIGN.md §5c.
func (m *metrics) register(reg *obs.Registry) {
	m.hits = reg.Counter("serve.cache.hits")
	m.misses = reg.Counter("serve.cache.misses")
	m.coalesced = reg.Counter("serve.coalesced")
	m.shed = reg.Counter("serve.shed")
	m.parsed = reg.Counter("serve.parsed")
	m.preloads = reg.Counter("serve.cache.preloads")
	m.invalidations = reg.Counter("serve.cache.invalidations")
	m.inFlight = reg.Gauge("serve.inflight")
	m.latency = reg.Histogram("serve.parse.seconds", obs.DurationBounds())
}

// Stats is a point-in-time snapshot of the serving layer.
type Stats struct {
	// Hits counts requests answered from the cache; Misses requests
	// admitted for a fresh parse; Coalesced requests that attached to
	// an identical in-flight parse; Shed requests rejected with
	// ErrOverloaded; Parsed parses actually executed.
	Hits, Misses, Coalesced, Shed, Parsed uint64
	// Preloads counts records injected by Preload (store warm-start).
	Preloads uint64
	// Invalidations counts generation bumps (SetParseFunc):
	// each one orphans every cached entry at once.
	Invalidations uint64
	// InFlight is the number of admitted-but-unfinished parses, Queued
	// how many of those are still waiting for a worker.
	InFlight, Queued int
	// CacheEntries is the current number of cached records.
	CacheEntries int
	// ParseP50/P90/P99 are parse-execution latency quantiles estimated
	// from the serve.parse.seconds histogram buckets, over all parses
	// since the server started.
	ParseP50, ParseP90, ParseP99 time.Duration
	// LatencySamples is the number of parses the quantiles cover.
	LatencySamples int
}

// String renders the snapshot as a one-line log summary.
func (st Stats) String() string {
	return fmt.Sprintf(
		"hits=%d misses=%d coalesced=%d shed=%d parsed=%d inflight=%d queued=%d cached=%d p50=%s p90=%s p99=%s",
		st.Hits, st.Misses, st.Coalesced, st.Shed, st.Parsed,
		st.InFlight, st.Queued, st.CacheEntries, st.ParseP50, st.ParseP90, st.ParseP99)
}
