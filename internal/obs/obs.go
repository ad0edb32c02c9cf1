// Package obs is the repo's stdlib-only observability layer: lock-free
// counters, gauges, and fixed-bucket histograms collected in a Registry
// that snapshots to expvar-compatible JSON; NewLogger, the one place
// that decides the log format; and a lightweight span API that records
// per-stage duration and outcome.
//
// The paper's production framing (102M records in §6, the ROADMAP's
// "heavy traffic from millions of users") makes per-stage visibility a
// first-class requirement: the serve cache, the CRF decode path, the
// crawler, and the daemons all report through this package, and the
// daemons expose the registry at /debug/vars (rdapd --debug-addr,
// whoisd/whoissurvey --metrics-addr).
//
// Metric naming scheme (see DESIGN.md §5c): dot-separated lowercase
// paths, `<component>.<subsystem>.<metric>`; counters are cumulative
// event counts, gauges are current values, histograms carry a unit
// suffix (`.seconds`, `.bytes`). Span stages record under
// `<stage>.seconds`, `<stage>.calls`, and `<stage>.errors`.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
)

// NewLogger returns the structured logger for one component: log/slog's
// text format on w at info level, every record tagged comp=component.
// One record is one line:
//
//	time=2026-08-06T12:00:00.000Z level=WARN msg="write failed" comp=whoisd peer=127.0.0.2 err="broken pipe"
//
// Every Log field in the repository is a *slog.Logger, and a nil one
// drops everything.
func NewLogger(component string, w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil)).With("comp", component)
}

// Registry is a concurrent-safe collection of named metrics. Metrics are
// created lazily and idempotently: two goroutines asking for the same
// counter name get the same counter. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	order   []string
}

// metric is anything the registry can snapshot to a JSON value.
type metric interface {
	snapshotValue() any
}

// Default is the process-wide registry used when no explicit registry is
// supplied (e.g. a query.Engine built without Options.Metrics).
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// lookup returns the named metric, creating it with mk on first use. It
// panics when the existing metric has a different kind — that is a
// programming error (two subsystems fighting over one name).
func (r *Registry) lookup(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	m := r.lookup(name, func() metric { return new(Counter) })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not Counter", name, m))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.lookup(name, func() metric { return new(Gauge) })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not Gauge", name, m))
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at snapshot time —
// for quantities the owner already tracks (queue depth, cache entries).
// Re-registering the same name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = gaugeFunc(fn)
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls may pass nil bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	m := r.lookup(name, func() metric { return NewHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not Histogram", name, m))
	}
	return h
}

// Snapshot returns a point-in-time, JSON-marshalable view of every
// metric: counters and gauges as numbers, histograms as objects with
// count, sum, estimated quantiles, and per-bucket counts. Values read
// concurrently with updates are individually atomic but not mutually
// consistent — good enough for monitoring.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = r.metrics[n]
	}
	r.mu.Unlock()
	out := make(map[string]any, len(names))
	for i, n := range names {
		out[n] = ms[i].snapshotValue()
	}
	return out
}

// WriteJSON writes the snapshot as one expvar-style JSON object with
// keys in sorted order.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, n := range names {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		} else if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		key, err := json.Marshal(n)
		if err != nil {
			return err
		}
		val, err := json.Marshal(snap[n])
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s: %s", key, val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// ServeHTTP serves the snapshot as application/json — the handler behind
// /debug/vars on the daemons.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = r.WriteJSON(w)
}
