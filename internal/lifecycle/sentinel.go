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
type sentinel struct {
	sampleEvery uint64
	confFloor   float64
	nullCeil    float64

	tick  atomic.Uint64
	flags *mathx.WindowFlags
}

func newSentinel(opts Options) *sentinel {
	return &sentinel{
		sampleEvery: uint64(opts.SampleEvery),
		confFloor:   opts.ConfidenceFloor,
		nullCeil:    opts.NullOtherCeiling,
		flags:       mathx.NewWindowFlags(opts.Window, opts.MinWindow),
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
	return s.flags.Observe(registrar, registrar, []float64{conf, nullRate}, func(means []float64) bool {
		return means[0] < s.confFloor || means[1] > s.nullCeil
	})
}

// flagged returns the currently flagged registrars, unordered.
func (s *sentinel) flagged() []string { return s.flags.Flagged() }
