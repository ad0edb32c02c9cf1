package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) snapshotValue() any { return c.v.Load() }

// Gauge is a current-value metric that can move both ways. The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) snapshotValue() any { return g.v.Load() }

// gaugeFunc is a snapshot-time computed gauge.
type gaugeFunc func() float64

func (f gaugeFunc) snapshotValue() any { return f() }

// Histogram is a fixed-bucket histogram with lock-free observation:
// bucket upper bounds are set at construction, each observation does one
// binary search plus three atomic adds. Unlike the ring buffer it
// replaces in internal/serve, it never reports values from unfilled
// slots and its memory does not grow with traffic.
type Histogram struct {
	bounds []float64       // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DurationBounds is the default bucket layout for latency histograms, in
// seconds: roughly logarithmic from 1µs to 10s — wide enough for an
// 856ns cache hit and a stalled 10s parse to land in distinct buckets.
func DurationBounds() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// UnitBounds is the default bucket layout for probabilities and other
// [0, 1] quantities (e.g. per-record minimum posterior confidence).
func UnitBounds() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}
}

// SizeBounds is the default bucket layout for byte-size histograms
// (record frames, artifact payloads): powers of four from 64 B to 1 GiB,
// so a 200-byte thin record and a 16 MiB pathological frame land far
// apart.
func SizeBounds() []float64 {
	return []float64{
		64, 256, 1024, 4096, 16384, 65536,
		1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30,
	}
}

// NewHistogram builds a histogram over the given ascending upper bounds;
// nil or empty bounds default to DurationBounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBounds()
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	if !sort.Float64sAreSorted(b) {
		panic("obs: histogram bounds must be ascending")
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the p-quantile (0 < p <= 1) by linear interpolation
// inside the bucket holding the target rank. Values beyond the last
// bound are reported as the last bound. Returns 0 with no observations.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			if i < len(h.bounds) {
				lower = h.bounds[i]
			}
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) {
				return lower // overflow bucket: clamp to the last bound
			}
			upper := h.bounds[i]
			frac := float64(rank-cum) / float64(n)
			return lower + frac*(upper-lower)
		}
		cum += n
		lower = h.bounds[i]
	}
	return lower
}

// QuantileDuration is Quantile for latency histograms, in time.Duration.
func (h *Histogram) QuantileDuration(p float64) time.Duration {
	return time.Duration(h.Quantile(p) * float64(time.Second))
}

func (h *Histogram) snapshotValue() any {
	type bucket struct {
		Le float64 `json:"le"`
		N  uint64  `json:"n"`
	}
	buckets := []bucket{} // non-nil: an idle histogram renders as [], not null
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue // keep /debug/vars readable; empty buckets carry no information
		}
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		if math.IsInf(le, 1) {
			le = -1 // JSON has no +Inf; -1 marks the overflow bucket
		}
		buckets = append(buckets, bucket{Le: le, N: n})
	}
	return map[string]any{
		"count":   h.count.Load(),
		"sum":     h.Sum(),
		"p50":     h.Quantile(0.50),
		"p90":     h.Quantile(0.90),
		"p99":     h.Quantile(0.99),
		"buckets": buckets,
	}
}
