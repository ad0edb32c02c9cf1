package mathx

// Window is a fixed-capacity sliding window over a stream of values with
// a running sum, so the windowed mean costs O(1) per observation. The
// drift sentinels keep one per registrar.
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
