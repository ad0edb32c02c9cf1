package consistency

import (
	"repro/internal/mathx"
	"repro/internal/norm"
	"repro/internal/obs"
)

// SentinelOptions tune the drift sentinel. Zero values take defaults.
type SentinelOptions struct {
	// Window is the per-registrar sliding window size (default 32).
	Window int
	// MinWindow is the minimum observations before a registrar can be
	// flagged (default 8) — a single conflicted record is not drift.
	MinWindow int
	// ConflictCeiling flags a registrar when its windowed mean
	// disagreement rate exceeds it (default 0.10).
	ConflictCeiling float64
	// OnDrift, when non-nil, is called on every flag transition with the
	// registrar display name of the comparison that flipped the flag, its
	// new flagged state, and the windowed mean rate that triggered the
	// transition. Called with the sentinel's lock released.
	OnDrift func(registrar string, flagged bool, rate float64)
}

func (o SentinelOptions) withDefaults() SentinelOptions {
	if o.Window <= 0 {
		o.Window = 32
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 8
	}
	if o.MinWindow > o.Window {
		o.MinWindow = o.Window
	}
	if o.ConflictCeiling <= 0 {
		o.ConflictCeiling = 0.10
	}
	return o
}

// Sentinel watches cross-protocol agreement per registrar, the same way
// the lifecycle sentinel watches parse quality: disagreement is registrar
// drift — one registrar changes its WHOIS output (or its RDAP deployment
// lags a data migration) and consistency quietly degrades there while the
// aggregate rate barely moves. Each registrar keeps a sliding window of
// per-record disagreement rates; a registrar is flagged when the windowed
// mean crosses the ceiling and unflagged when it recovers. Transitions,
// not levels, fire OnDrift and the flag_events counters.
type Sentinel struct {
	opts  SentinelOptions
	met   *sentinelMetrics
	flags *mathx.WindowFlags // keyed by norm.Registrar, named by the first-seen display name
}

type sentinelMetrics struct {
	observations *obs.Counter
	conflicts    *obs.Counter
	flagEvents   *obs.Counter
	unflagEvents *obs.Counter
	flagged      *obs.Gauge
}

// NewSentinel creates a sentinel with the given options.
func NewSentinel(opts SentinelOptions) *Sentinel {
	opts = opts.withDefaults()
	return &Sentinel{opts: opts, flags: mathx.NewWindowFlags(opts.Window, opts.MinWindow)}
}

// Instrument wires the sentinel into reg under consistency.drift.*:
// observations/conflicts count records seen and records with at least one
// conflicting field, flag_events/unflag_events count transitions, and
// flagged gauges the number of currently flagged registrars. Call once,
// before the sentinel is shared.
func (s *Sentinel) Instrument(reg *obs.Registry) {
	s.met = &sentinelMetrics{
		observations: reg.Counter("consistency.drift.observations"),
		conflicts:    reg.Counter("consistency.drift.conflicts"),
		flagEvents:   reg.Counter("consistency.drift.flag_events"),
		unflagEvents: reg.Counter("consistency.drift.unflag_events"),
		flagged:      reg.Gauge("consistency.drift.flagged"),
	}
}

// Observe feeds one comparison into its registrar's window and reports
// whether the registrar's flag transitioned. Comparisons with no
// comparable fields are counted but do not move any window — no evidence
// either way.
func (s *Sentinel) Observe(c Comparison) (flagged, unflagged bool) {
	if s.met != nil {
		s.met.observations.Inc()
		if c.Conflicts() > 0 {
			s.met.conflicts.Inc()
		}
	}
	if c.Comparable() == 0 {
		return false, false
	}
	var mean float64
	flagged, unflagged, total := s.flags.Observe(norm.Registrar(c.Registrar), c.Registrar,
		[]float64{c.Rate()}, func(means []float64) bool {
			mean = means[0]
			return mean > s.opts.ConflictCeiling
		})
	if flagged || unflagged {
		if s.met != nil {
			if flagged {
				s.met.flagEvents.Inc()
			} else {
				s.met.unflagEvents.Inc()
			}
			s.met.flagged.Set(int64(total))
		}
		if s.opts.OnDrift != nil {
			s.opts.OnDrift(c.Registrar, flagged, mean)
		}
	}
	return flagged, unflagged
}

// Flagged returns the display names of currently flagged registrars,
// unordered.
func (s *Sentinel) Flagged() []string { return s.flags.Flagged() }
