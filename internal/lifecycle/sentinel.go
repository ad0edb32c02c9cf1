package lifecycle

import (
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
//
// The windows belong to one model generation: a swap starts fresh ones,
// and a parse by a replaced model, still in flight, is dropped.
type sentinel struct {
	sampleEvery uint64
	confFloor   float64
	nullCeil    float64
	window      int
	minWindow   int

	tick atomic.Uint64
	cur  atomic.Pointer[driftWindows]
}

// driftWindows are the windows of the snapshot with sequence seq.
type driftWindows struct {
	seq   uint64
	flags *mathx.WindowFlags
}

func newSentinel(opts Options) *sentinel {
	s := &sentinel{
		sampleEvery: uint64(opts.SampleEvery),
		confFloor:   opts.ConfidenceFloor,
		nullCeil:    opts.NullOtherCeiling,
		window:      opts.Window,
		minWindow:   opts.MinWindow,
	}
	s.reset(0)
	return s
}

// reset gives snapshot seq fresh, empty windows, discarding the previous
// model's.
func (s *sentinel) reset(seq uint64) {
	s.cur.Store(&driftWindows{seq: seq, flags: mathx.NewWindowFlags(s.window, s.minWindow)})
}

// shouldScore decides whether this parse pays for posterior confidence;
// a lock-free modular counter spreads the sampling across goroutines.
func (s *sentinel) shouldScore() bool {
	if s.sampleEvery <= 1 {
		return true
	}
	return s.tick.Add(1)%s.sampleEvery == 0
}

// observe records one scored parse by snapshot seq and reports whether
// the registrar's flag transitioned, plus the total number of currently
// flagged registrars (valid whenever a transition happened). An
// observation by any snapshot but the one the windows belong to is
// dropped, with no transition.
func (s *sentinel) observe(seq uint64, registrar string, conf, nullRate float64) (flagged, unflagged bool, total int) {
	w := s.cur.Load()
	if w.seq != seq {
		return false, false, 0
	}
	return w.flags.Observe(registrar, registrar, []float64{conf, nullRate}, func(means []float64) bool {
		return means[0] < s.confFloor || means[1] > s.nullCeil
	})
}

// flagged returns the currently flagged registrars, unordered.
func (s *sentinel) flagged() []string { return s.cur.Load().flags.Flagged() }
