package obs

import "time"

// Spans are the lightweight tracing half of the package: a span times
// one stage ("parse", "crawl.thick", "rdap.parsed") and records its
// duration and outcome into the registry under <name>.seconds,
// <name>.calls, and <name>.errors. There is no propagation or sampling —
// just per-stage latency and error visibility at ~two time.Now calls of
// overhead.

// Span is one in-progress timed stage. End it exactly once.
type Span struct {
	r     *Registry
	name  string
	start time.Time
}

// Start begins a span recording into this registry.
func (r *Registry) Start(name string) *Span {
	return &Span{r: r, name: name, start: time.Now()}
}

// End records the span's duration and outcome: <name>.calls always
// increments, <name>.errors increments when err is non-nil, and the
// elapsed time lands in the <name>.seconds histogram. End on a nil span
// is a no-op.
func (s *Span) End(err error) {
	if s == nil || s.r == nil {
		return
	}
	s.r.Histogram(s.name+".seconds", DurationBounds()).ObserveSince(s.start)
	s.r.Counter(s.name + ".calls").Inc()
	if err != nil {
		s.r.Counter(s.name + ".errors").Inc()
	}
}
