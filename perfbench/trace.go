package main

import (
	"sort"
	"sync"
	"time"
)

// Layers a span can belong to. Spans are recorded by this benchmark
// around the calls it makes into each layer's public functions; the
// program under test is not instrumented.
const (
	layerRDAP     = iota // client round trip of GET /parsed/{name}
	layerServe           // rdap.ParseBackend.ParseDomain → serve.Server.Parse
	layerTiered          // the func given to serve.Server.SetParseFunc
	layerCore            // core.Parser.Parse: the L1 func given to Bind, or the parse behind ParseBatch
	layerIngest          // the whole survey ingest
	layerBatch           // one ParseBatch call
	layerFacts           // survey.FactsFrom
	layerAppend          // store.Store.Append
	layerCompress        // store.Store.CompressSealed
	layerSync            // store.Store.Sync
	numLayers
)

// span is one call at a layer boundary. Spans of one request (a lookup,
// or a survey batch) share rid; parent is the index of the span that
// caused this one, or -1.
type span struct {
	layer      int
	rid        int64
	parent     int32
	start, end time.Duration // since the tracer's epoch
	adopted    bool          // a child has claimed this span
}

// tracer keeps spans in memory until the run ends. Spans that run on
// other goroutines (serve workers) find their parent through open: the
// caller registers its span under a key the callee can see (the domain
// for the serving layer, the record text below it) and the callee
// claims the oldest unclaimed span under that key.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	nextRID int64
	open    [numLayers]map[string][]int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.open {
		t.open[i] = make(map[string][]int32)
	}
	return t
}

// reset drops every span recorded so far (warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	for i := range t.open {
		t.open[i] = make(map[string][]int32)
	}
}

// begin opens a span. A parent of -1 starts a new request.
func (t *tracer) begin(layer int, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(layer, parent)
}

func (t *tracer) beginLocked(layer int, parent int32) int32 {
	s := span{layer: layer, parent: parent, start: time.Since(t.epoch)}
	if parent >= 0 {
		s.rid = t.spans[parent].rid
	} else {
		t.nextRID++
		s.rid = t.nextRID
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// beginClaim opens a span whose parent is the oldest unclaimed span the
// parent layer registered under key (a root when there is none).
func (t *tracer) beginClaim(layer, parentLayer int, key string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if q := t.open[parentLayer][key]; len(q) > 0 {
		parent = q[0]
		t.spans[parent].adopted = true
		if len(q) == 1 {
			delete(t.open[parentLayer], key)
		} else {
			t.open[parentLayer][key] = q[1:]
		}
	}
	return t.beginLocked(layer, parent)
}

// offer makes span id claimable by one child under key.
func (t *tracer) offer(id int32, key string) {
	t.mu.Lock()
	m := t.open[t.spans[id].layer]
	m[key] = append(m[key], id)
	t.mu.Unlock()
}

// end closes span id, withdrawing it from key if no child claimed it.
func (t *tracer) end(id int32, key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	if key == "" || s.adopted {
		return
	}
	m := t.open[s.layer]
	q := m[key]
	for i, v := range q {
		if v == id {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(m, key)
	} else {
		m[key] = q
	}
}

// layerStats are the derived per-layer figures of a finished trace.
type layerStats struct {
	count int
	dur   []float64 // span durations, µs
	self  []float64 // duration minus the part child spans cover, µs
	// leaf counts spans with no children; leafDur sums their durations.
	leaf    int
	leafDur float64
}

// analyze derives self times: a span's self time is its duration minus
// the union of its children's intervals, clipped to the span.
func (t *tracer) analyze() [numLayers]layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	var out [numLayers]layerStats
	for i, s := range t.spans {
		d := float64(s.end-s.start) / 1e3
		covered := float64(t.covered(s, children[i])) / 1e3
		ls := &out[s.layer]
		ls.count++
		ls.dur = append(ls.dur, d)
		ls.self = append(ls.self, d-covered)
		if len(children[i]) == 0 {
			ls.leaf++
			ls.leafDur += d
		}
	}
	return out
}

// covered is the length of the union of the children's intervals
// within s.
func (t *tracer) covered(s span, kids []int32) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// requestSelf sums the self times of each request's spans, in µs, from
// the analysis ls. The self times of one request partition its root
// span, so the sum is the traced round trip as the layers account for it.
func (t *tracer) requestSelf(ls [numLayers]layerStats) []float64 {
	byRID := make(map[int64]float64)
	t.mu.Lock()
	defer t.mu.Unlock()
	var idx [numLayers]int
	for _, s := range t.spans {
		byRID[s.rid] += ls[s.layer].self[idx[s.layer]]
		idx[s.layer]++
	}
	out := make([]float64, 0, len(byRID))
	for _, v := range byRID {
		out = append(out, v)
	}
	return out
}
