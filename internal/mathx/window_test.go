package mathx

import (
	"math"
	"testing"
)

func TestWindowSlidingMean(t *testing.T) {
	w := NewWindow(4)
	if w.Mean() != 0 {
		t.Fatal("empty window mean != 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		w.Push(v)
	}
	if got := w.Mean(); got != 2.5 {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	// Overwrite the oldest entries: window is now {5, 6, 3, 4}.
	w.Push(5)
	w.Push(6)
	if got := w.Mean(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("mean after wrap = %v, want 4.5", got)
	}
	if w.Len() != 4 {
		t.Fatalf("Len = %d, want 4", w.Len())
	}
}
