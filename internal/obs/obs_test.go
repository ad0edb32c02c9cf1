package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.hits") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("a.depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("Gauge on a counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1, 2] bucket
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := h.Sum(); math.Abs(got-150) > 1e-9 {
		t.Errorf("sum = %g, want 150", got)
	}
	p50 := h.Quantile(0.50)
	if p50 <= 1 || p50 > 2 {
		t.Errorf("p50 = %g, want within (1, 2]", p50)
	}
	// Values beyond the last bound clamp to it.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %g, want 2 (last bound)", got)
	}
	if got := NewHistogram(nil).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveDuration(2 * time.Millisecond)
	if d := h.QuantileDuration(0.5); d < time.Millisecond || d > 3*time.Millisecond {
		t.Errorf("p50 duration = %s, want ~2ms (bucket-estimated)", d)
	}
}

// TestSnapshotJSONRoundTrip is the /debug/vars contract: the handler's
// output must round-trip through encoding/json and carry every metric.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.cache.hits").Add(3)
	r.Gauge("serve.queue.depth").Set(2)
	r.GaugeFunc("serve.cache.entries", func() float64 { return 11 })
	h := r.Histogram("serve.parse.seconds", DurationBounds())
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(40 * time.Microsecond)

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}

	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("handler output is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if got := decoded["serve.cache.hits"]; got != float64(3) {
		t.Errorf("hits = %v, want 3", got)
	}
	if got := decoded["serve.queue.depth"]; got != float64(2) {
		t.Errorf("depth = %v, want 2", got)
	}
	if got := decoded["serve.cache.entries"]; got != float64(11) {
		t.Errorf("entries = %v, want 11", got)
	}
	hist, ok := decoded["serve.parse.seconds"].(map[string]any)
	if !ok {
		t.Fatalf("histogram snapshot is %T, want object", decoded["serve.parse.seconds"])
	}
	if hist["count"] != float64(2) {
		t.Errorf("histogram count = %v, want 2", hist["count"])
	}
	if buckets, ok := hist["buckets"].([]any); !ok || len(buckets) != 2 {
		t.Errorf("buckets = %v, want two non-empty buckets", hist["buckets"])
	}
	// Re-encode: the snapshot itself must be marshalable as-is.
	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Errorf("snapshot not marshalable: %v", err)
	}
}

func TestDebugMuxServesVarsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	mux := DebugMux(r)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if decoded["x"] != float64(1) {
		t.Errorf("/debug/vars x = %v, want 1", decoded["x"])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ status %d, body lacks profile index", rec.Code)
	}
}

// TestNewLoggerFormat pins the one log format: slog's text records,
// info and up, each tagged with its component.
func TestNewLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger("whoisd", &buf)
	l.Debug("dropped")
	l.Warn("write failed", "peer", "127.0.0.1", "err", errors.New("broken pipe"))
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Error("debug record written at info level")
	}
	if !strings.HasPrefix(out, "time=") ||
		!strings.Contains(out, ` level=WARN msg="write failed" comp=whoisd peer=127.0.0.1 err="broken pipe"`+"\n") {
		t.Errorf("record malformed: %q", out)
	}
}

func TestSpanRecordsDurationAndOutcome(t *testing.T) {
	r := NewRegistry()
	sp := r.Start("parse")
	time.Sleep(time.Millisecond)
	sp.End(nil)
	sp = r.Start("parse")
	sp.End(errors.New("boom"))

	if got := r.Counter("parse.calls").Value(); got != 2 {
		t.Errorf("parse.calls = %d, want 2", got)
	}
	if got := r.Counter("parse.errors").Value(); got != 1 {
		t.Errorf("parse.errors = %d, want 1", got)
	}
	h := r.Histogram("parse.seconds", nil)
	if h.Count() != 2 || h.Sum() <= 0 {
		t.Errorf("parse.seconds count=%d sum=%g, want 2 observations with positive sum", h.Count(), h.Sum())
	}

	var nilSpan *Span
	nilSpan.End(nil) // must not panic
}
