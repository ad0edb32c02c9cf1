package mathx

import "sync"

// Window is a fixed-capacity sliding window over a stream of values with
// a running sum, so the windowed mean costs O(1) per observation. The
// drift sentinels keep theirs in a WindowFlags.
type Window struct {
	buf  []float64
	n    int // filled entries
	next int // next write position
	sum  float64
}

// NewWindow returns an empty window holding the last size values.
func NewWindow(size int) *Window { return &Window{buf: make([]float64, size)} }

// Push adds v, evicting the oldest value once the window is full.
func (w *Window) Push(v float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.next]
	} else {
		w.n++
	}
	w.buf[w.next] = v
	w.sum += v
	w.next = (w.next + 1) % len(w.buf)
}

// Len reports how many values the window holds.
func (w *Window) Len() int { return w.n }

// Mean is the mean of the held values; 0 for an empty window.
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// WindowFlags is the bookkeeping both drift sentinels share: per key, one
// Window per signal and a flag. Once a key's windows hold minLen values,
// each observation sets its flag to the caller's verdict over the window
// means, and a flip is reported exactly once. Safe for concurrent use.
type WindowFlags struct {
	size, minLen int

	mu    sync.Mutex
	keys  map[string]*keyWindows
	flags map[string]bool
}

type keyWindows struct {
	name  string
	wins  []*Window
	means []float64
}

// NewWindowFlags returns an empty set whose windows hold the last size
// values and vote once they hold minLen.
func NewWindowFlags(size, minLen int) *WindowFlags {
	return &WindowFlags{size: size, minLen: minLen,
		keys: map[string]*keyWindows{}, flags: map[string]bool{}}
}

// Observe pushes vals, one per signal, into key's windows; name is what
// Flagged reports for key, fixed by its first observation. Once the
// windows hold minLen values, the key's flag becomes drifting(means),
// and flagged or unflagged reports a flip. total is the number of keys
// flagged afterwards. drifting runs under the set's lock.
func (f *WindowFlags) Observe(key, name string, vals []float64, drifting func(means []float64) bool) (flagged, unflagged bool, total int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := f.keys[key]
	if k == nil {
		k = &keyWindows{name: name, wins: make([]*Window, len(vals)), means: make([]float64, len(vals))}
		for i := range k.wins {
			k.wins[i] = NewWindow(f.size)
		}
		f.keys[key] = k
	}
	for i, v := range vals {
		k.wins[i].Push(v)
	}
	if k.wins[0].Len() < f.minLen {
		return false, false, len(f.flags)
	}
	for i, w := range k.wins {
		k.means[i] = w.Mean()
	}
	now, was := drifting(k.means), f.flags[key]
	switch {
	case now && !was:
		f.flags[key] = true
		flagged = true
	case !now && was:
		delete(f.flags, key)
		unflagged = true
	}
	return flagged, unflagged, len(f.flags)
}

// Flagged returns the names of the flagged keys, unordered.
func (f *WindowFlags) Flagged() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.flags))
	for key := range f.flags {
		out = append(out, f.keys[key].name)
	}
	return out
}
