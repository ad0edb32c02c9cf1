package obs

// Race-detector-targeted tests: every shared structure in the package is
// hammered from many goroutines at once. `make race` runs this package
// with -race; the assertions double as lost-update checks (atomic
// counters must not drop increments under contention).

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestConcurrentCounterIncrements(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines race the lazy registration path too.
			c := r.Counter("hot.counter")
			for i := 0; i < perG; i++ {
				c.Inc()
				r.Gauge("hot.gauge").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hot.counter").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d (lost updates)", got, goroutines*perG)
	}
	if got := r.Gauge("hot.gauge").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d (lost updates)", got, goroutines*perG)
	}
}

func TestConcurrentHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	const workers, perW = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%4) * 0.03)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*perW); got != want {
		t.Errorf("count = %d, want %d (lost updates)", got, want)
	}
	if h.Quantile(0.5) <= 0 {
		t.Error("histogram has non-positive median")
	}
}

func TestConcurrentSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					r.Counter(fmt.Sprintf("c.%d", g)).Inc()
					r.Histogram("h", nil).Observe(0.001)
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteJSON(&sb); err != nil {
			t.Errorf("WriteJSON during writes: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentSpans(t *testing.T) {
	r := NewRegistry()
	const workers, perW = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				sp := r.Start("stage")
				sp.End(nil)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("stage.calls").Value(); got != workers*perW {
		t.Errorf("stage.calls = %d, want %d", got, workers*perW)
	}
}
