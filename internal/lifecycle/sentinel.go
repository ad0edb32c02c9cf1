package lifecycle

import (
	"sync"
	"sync/atomic"

	"repro/internal/mathx"
)

// sentinel watches live parse quality per registrar. WHOIS drift is
// template drift: one registrar changes its output format and the model
// quietly degrades on that registrar while aggregate metrics barely
// move (§5.1). So the windows are keyed by the registrar the model
// extracted, and each tracks two signals over a sliding window:
//
//   - mean minimum posterior confidence (§5.3's uncertainty measure) of
//     the sampled parses — low means the model is guessing;
//   - mean Null/Other line rate — high means the model has stopped
//     recognizing the template's blocks altogether.
//
// A registrar is flagged when either windowed mean crosses its
// threshold (with at least minWindow observations), and unflagged when
// both recover. Transitions, not levels, are reported to the manager so
// flapping windows do not spam logs or callbacks.
type sentinel struct {
	sampleEvery uint64
	window      int
	minWindow   int
	confFloor   float64
	nullCeil    float64

	tick atomic.Uint64

	mu    sync.Mutex
	regs  map[string]*regWindow
	flags map[string]bool
}

type regWindow struct {
	conf, null *mathx.Window
}

func newSentinel(opts Options) *sentinel {
	return &sentinel{
		sampleEvery: uint64(opts.SampleEvery),
		window:      opts.Window,
		minWindow:   opts.MinWindow,
		confFloor:   opts.ConfidenceFloor,
		nullCeil:    opts.NullOtherCeiling,
		regs:        map[string]*regWindow{},
		flags:       map[string]bool{},
	}
}

// shouldScore decides whether this parse pays for posterior confidence;
// a lock-free modular counter spreads the sampling across goroutines.
func (s *sentinel) shouldScore() bool {
	if s.sampleEvery <= 1 {
		return true
	}
	return s.tick.Add(1)%s.sampleEvery == 0
}

// observe records one scored parse and reports whether the registrar's
// flag transitioned, plus the total number of currently flagged
// registrars (valid whenever a transition happened).
func (s *sentinel) observe(registrar string, conf, nullRate float64) (flagged, unflagged bool, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.regs[registrar]
	if w == nil {
		w = &regWindow{
			conf: mathx.NewWindow(s.window),
			null: mathx.NewWindow(s.window),
		}
		s.regs[registrar] = w
	}
	w.conf.Push(conf)
	w.null.Push(nullRate)

	if w.conf.Len() < s.minWindow {
		return false, false, len(s.flags)
	}
	drifting := w.conf.Mean() < s.confFloor || w.null.Mean() > s.nullCeil
	was := s.flags[registrar]
	switch {
	case drifting && !was:
		s.flags[registrar] = true
		return true, false, len(s.flags)
	case !drifting && was:
		delete(s.flags, registrar)
		return false, true, len(s.flags)
	}
	return false, false, len(s.flags)
}

// flagged returns the currently flagged registrars, unordered.
func (s *sentinel) flagged() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.flags))
	for r := range s.flags {
		out = append(out, r)
	}
	return out
}

// reset clears all windows and flags — called after a promotion, since
// the evidence of the old model's drift says nothing about the new one.
func (s *sentinel) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.regs = map[string]*regWindow{}
	s.flags = map[string]bool{}
}
