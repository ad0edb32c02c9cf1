// Package lifecycle is the online model-lifecycle control plane: it owns
// which trained model is live, swaps models with zero downtime, and
// watches live traffic for drift.
//
// The paper's system is not a one-shot parser: WHOIS templates drift as
// registrars change formats (§5.1), so the deployed model is retrained
// on newly labeled records (§5.3) and redeployed while the daemons keep
// serving. Retraining happens out of process (`whoisparse train`, `eval`,
// `model publish`/`promote`); this package is the serving half of the
// loop:
//
//	Serving ──drift──▶ DriftFlagged
//	   ▲                    │
//	   └──recovered/swap────┘
//	(a reload swaps the model in either state; the new model starts
//	with fresh drift windows)
//
// The hot-swap mechanics live in internal/serve: a Manager holds the
// current model in an atomic Snapshot pointer and, on swap, rebinds every
// attached serve.Server to a ParseFunc closed over that snapshot.
// serve.SetParseFunc replaces the parse function and bumps the cache
// generation in a single atomic store, so no request can observe the new
// model with the old cache (or a torn mix); entries cached under the old
// generation simply stop matching and age out of the LRU. Every parse is
// stamped with the snapshot's version string, which makes "which model
// produced this answer" a property of the response, not of wall-clock
// correlation.
package lifecycle

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tiered"
)

// State is the lifecycle position of the serving stack: Serving →
// DriftFlagged when the sentinel flags a registrar, and back once every
// flag has cleared. Exported via the lifecycle.state gauge.
type State int32

const (
	// StateServing: the live model is healthy and serving.
	StateServing State = iota
	// StateDriftFlagged: at least one registrar window tripped the
	// sentinel; the live model keeps serving until the flags clear or
	// an operator reloads a retrained model.
	StateDriftFlagged
)

func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateDriftFlagged:
		return "drift-flagged"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Snapshot is one immutable generation of the serving model. Swaps
// replace the whole snapshot atomically; nothing in it is ever mutated
// after publication.
type Snapshot struct {
	// Parser is the trained model.
	Parser *core.Parser
	// Seq is the in-process generation number, starting at 1 for the
	// model the Manager was built with and incrementing per swap.
	Seq uint64
	// Info is the WMDL artifact identity when the model came from disk;
	// zero for purely in-memory models.
	Info store.ModelInfo
	// Path is the artifact path the model was loaded from, if any.
	Path string
	// Family and SemVer name the model's registry entry when it was
	// resolved from one (NewFromRegistry or ReloadServing); both empty
	// otherwise. They describe the model for /admin/model and logs;
	// they are never part of the stamp.
	Family string
	SemVer string
	// Version is the string stamped into every ParsedRecord this
	// snapshot produces: the artifact's "wmdl-<crc32c>" (ModelInfo.ID)
	// however the artifact arrived — registry, file or cluster bytes —
	// so every process serving the same bytes stamps the same string.
	// Purely in-memory models stamp "m<seq>".
	Version string
}

// Options configures a Manager. The zero value is usable: drift
// sentinel on with default thresholds, no template tier.
type Options struct {
	// Metrics receives lifecycle.* metrics; nil means a private
	// registry (reachable via Manager.Metrics). Swapped-in models are
	// instrumented against this registry only when it is non-nil, so a
	// daemon that shares one registry across core/serve/store sees
	// every model generation under the same core.* names.
	Metrics *obs.Registry
	// Log receives lifecycle events (swaps, drift flags, template
	// demotions); nil discards them.
	Log *slog.Logger

	// SampleEvery scores every Nth parse with posterior confidence
	// (ParseWithConfidence costs one extra forward-backward over the
	// block lattice); the rest run the plain Viterbi path and feed only
	// the null/other-rate window. <= 0 means 8; 1 scores everything.
	SampleEvery int
	// Window is the per-registrar sliding-window size in observations;
	// <= 0 means 64.
	Window int
	// MinWindow is the minimum observations before a window may flag;
	// <= 0 means 16 (capped at Window).
	MinWindow int
	// ConfidenceFloor flags a registrar whose windowed mean minimum
	// posterior confidence falls below it; <= 0 means 0.5.
	ConfidenceFloor float64
	// NullOtherCeiling flags a registrar whose windowed mean fraction
	// of Null/Other lines exceeds it — the "model stopped recognizing
	// the template" signal (§5.1). <= 0 means 0.9.
	NullOtherCeiling float64

	// Tiered, when non-nil, is the L0 template router the manager serves
	// through: every parse function handed to attached servers is bound
	// via Tiered.Bind, and a registrar that trips the drift sentinel has
	// its template demoted (the §2.3 failure mode — the template is
	// exactly what drifted). Model swaps and reloads leave L0 untouched:
	// templates derive from labeled data, not model weights.
	Tiered *tiered.Router
}

func (o Options) withDefaults() Options {
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Log == nil {
		o.Log = obs.NewLogger("lifecycle", io.Discard)
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 8
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 16
	}
	if o.MinWindow > o.Window {
		o.MinWindow = o.Window
	}
	if o.ConfidenceFloor <= 0 {
		o.ConfidenceFloor = 0.5
	}
	if o.NullOtherCeiling <= 0 {
		o.NullOtherCeiling = 0.9
	}
	return o
}

type metrics struct {
	swaps    *obs.Counter
	reloads  *obs.Counter
	state    *obs.Gauge
	modelSeq *obs.Gauge

	driftObs     *obs.Counter
	driftEvents  *obs.Counter
	driftFlagged *obs.Gauge
	confidence   *obs.Histogram
	nullRate     *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		swaps:    reg.Counter("lifecycle.swaps"),
		reloads:  reg.Counter("lifecycle.reloads"),
		state:    reg.Gauge("lifecycle.state"),
		modelSeq: reg.Gauge("lifecycle.model.seq"),

		driftObs:     reg.Counter("lifecycle.drift.observations"),
		driftEvents:  reg.Counter("lifecycle.drift.events"),
		driftFlagged: reg.Gauge("lifecycle.drift.flagged"),
		confidence:   reg.Histogram("lifecycle.drift.confidence", obs.UnitBounds()),
		nullRate:     reg.Histogram("lifecycle.drift.nullrate", obs.UnitBounds()),
	}
}

// Manager owns the live model and the drift watch around it. All
// methods are safe for concurrent use.
type Manager struct {
	opts Options
	log  *slog.Logger
	met  metrics

	// registry and family, set by NewFromRegistry, name the registry
	// entry ReloadServing re-resolves; registry is nil otherwise.
	registry *modelreg.Registry
	family   string

	cur   atomic.Pointer[Snapshot]
	seq   atomic.Uint64
	state atomic.Int32

	// mu serializes swaps, the attached-server set and drift state
	// transitions, so every server converges on the latest snapshot even
	// under concurrent swaps, and a swap's reset of the drift state is
	// never overtaken by a flag from the replaced model.
	mu         sync.Mutex
	attached   []*serve.Server
	instrument bool

	sentinel *sentinel
}

// New builds a Manager serving p (an in-memory model; use NewFromFile
// when the model has an artifact identity).
func New(p *core.Parser, opts Options) *Manager {
	return newManager(Snapshot{Parser: p}, opts, nil, "")
}

// NewFromFile loads the WMDL artifact at path and builds a Manager
// serving it, with the artifact identity (version, CRC) in the snapshot.
func NewFromFile(path string, opts Options) (*Manager, error) {
	p, info, err := store.LoadModel(path)
	if err != nil {
		return nil, err
	}
	return newManager(Snapshot{Parser: p, Info: info, Path: path}, opts, nil, ""), nil
}

// newManager builds a Manager serving first, whose Seq and Version
// publish assigns; reg and family are the registry entry it serves, if
// any.
func newManager(first Snapshot, opts Options, reg *modelreg.Registry, family string) *Manager {
	instrument := opts.Metrics != nil
	opts = opts.withDefaults()
	m := &Manager{
		opts:       opts,
		log:        opts.Log,
		met:        newMetrics(opts.Metrics),
		registry:   reg,
		family:     family,
		instrument: instrument,
		sentinel:   newSentinel(opts),
	}
	m.publish(first)
	return m
}

// Metrics returns the registry lifecycle metrics land in.
func (m *Manager) Metrics() *obs.Registry { return m.opts.Metrics }

// Current returns the live snapshot.
func (m *Manager) Current() *Snapshot { return m.cur.Load() }

// State returns the lifecycle state.
func (m *Manager) State() State { return State(m.state.Load()) }

func (m *Manager) setState(s State) {
	m.state.Store(int32(s))
	m.met.state.Set(int64(s))
}

// Attach routes a serve.Server through the manager: its parse function
// is replaced with the current snapshot's stamped+observed ParseFunc
// now, and rebound on every future swap. Attaching bumps the server's
// cache generation, so results cached before attachment (unstamped, from
// an unknown model) are never served again.
func (m *Manager) Attach(ps *serve.Server) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attached = append(m.attached, ps)
	ps.SetParseFunc(m.parseFuncFor(m.cur.Load()))
}

// ParseFunc returns the current snapshot's parse function — what an
// attached server runs on a cache miss. Useful for frontends that do not
// sit behind serve (batch drivers).
func (m *Manager) ParseFunc() serve.ParseFunc {
	return m.parseFuncFor(m.cur.Load())
}

// Parse runs the current model over text with lifecycle stamping and
// drift observation, bypassing any serving cache.
func (m *Manager) Parse(text string) *core.ParsedRecord {
	return m.parseFuncFor(m.cur.Load())(text)
}

// parseFuncFor binds a snapshot into the ParseFunc handed to serve: it
// stamps every record with the snapshot version and feeds the drift
// sentinel. The closure captures the snapshot,
// not the manager's current pointer, so a request admitted under cache
// generation G always parses with the model that generation belongs to.
func (m *Manager) parseFuncFor(snap *Snapshot) serve.ParseFunc {
	base := func(text string) *core.ParsedRecord {
		var rec *core.ParsedRecord
		if m.sentinel.shouldScore() {
			var conf float64
			rec, conf = snap.Parser.ParseWithConfidence(text)
			rec.ModelVersion = snap.Version
			m.observe(snap, rec, text, conf)
		} else {
			rec = snap.Parser.Parse(text)
			rec.ModelVersion = snap.Version
		}
		return rec
	}
	if m.opts.Tiered == nil {
		return base
	}
	// Route through L0. Only L1-served records reach the sentinel above
	// — which is the point: records that fall through L0 (no template,
	// mismatch, low match confidence, demoted) are exactly the ones
	// worth scoring.
	return m.opts.Tiered.Bind(base)
}

// observe feeds one scored parse of a record's text into the sentinel,
// which keys on the extracted registrar and reads no text. A parse by a
// snapshot that is no longer current is dropped: its model's windows
// are gone, and it must not flag the model that replaced it.
func (m *Manager) observe(snap *Snapshot, rec *core.ParsedRecord, _ string, conf float64) {
	rate := nullOtherRate(rec)
	m.met.driftObs.Inc()
	m.met.confidence.Observe(conf)
	m.met.nullRate.Observe(rate)

	reg := rec.Registrar
	if reg == "" {
		// A degraded model often stops extracting the registrar at
		// all; pool those under one synthetic key so the signal is
		// not lost.
		reg = "(unattributed)"
	}
	flagged, unflagged, _ := m.sentinel.observe(snap.Seq, reg, conf, rate)
	if !flagged && !unflagged {
		return
	}
	// Transitions apply under mu, where publish resets the windows and
	// the state: one that lost the race to a swap came from the
	// replaced windows and is dropped. The state and the gauge are read
	// off the windows rather than the transition's own count, so
	// transitions applied out of order still leave them right.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur.Load() != snap {
		return
	}
	if flagged {
		m.met.driftEvents.Inc()
		m.log.Warn("drift flagged",
			"registrar", reg, "model", snap.Version,
			"conf", fmt.Sprintf("%.3f", conf), "nullrate", fmt.Sprintf("%.3f", rate))
		if m.opts.Tiered != nil && m.opts.Tiered.Demote(reg) {
			// The drifted registrar's template must stop serving:
			// an exact template is the artifact drift invalidates
			// first (§2.3). L1 takes the registrar until shadow
			// agreement re-promotes it.
			m.log.Warn("template demoted", "registrar", reg)
		}
	} else {
		m.log.Info("drift cleared", "registrar", reg)
	}
	n := len(m.sentinel.flagged())
	m.met.driftFlagged.Set(int64(n))
	if n > 0 {
		m.setState(StateDriftFlagged)
	} else {
		m.setState(StateServing)
	}
}

// Flagged returns the registrars currently past the drift threshold,
// sorted.
func (m *Manager) Flagged() []string {
	fs := m.sentinel.flagged()
	sort.Strings(fs)
	return fs
}

// Swap publishes p as the live model: a new snapshot is built, every
// attached server is rebound (which bumps its cache generation, so
// stale entries from the old model stop matching), and the snapshot is
// returned. info/path carry the artifact identity when the model came
// from disk; pass zero values for in-memory models.
func (m *Manager) Swap(p *core.Parser, info store.ModelInfo, path string) *Snapshot {
	return m.swap(Snapshot{Parser: p, Info: info, Path: path})
}

func (m *Manager) swap(next Snapshot) *Snapshot {
	m.mu.Lock()
	snap := m.publish(next)
	m.mu.Unlock()
	m.met.swaps.Inc()
	m.log.Info("model swapped", "version", snap.Version, "seq", snap.Seq,
		"semver", snap.SemVer, "artifact", snap.Info.String())
	return snap
}

// publish assigns next its Seq and Version, then instruments, stores,
// and rebinds. The new model starts with fresh drift windows, no flags
// and StateServing: the replaced model's drift says nothing about it.
// Callers other than newManager must hold m.mu.
func (m *Manager) publish(next Snapshot) *Snapshot {
	next.Seq = m.seq.Add(1)
	next.Version = versionString(next.Seq, next.Info)
	snap := &next
	// Instrument before publication, and only into a caller-provided
	// registry — instrumenting into the manager's private default would
	// silently redirect core.* metrics a daemon already wired elsewhere.
	// A parser swapped in again is already instrumented into this
	// registry, and Instrument leaves it untouched then: earlier
	// snapshots may still be parsing with it. The check lives on the
	// parser, so the manager holds no replaced model.
	if m.instrument {
		snap.Parser.Instrument(m.opts.Metrics)
	}
	m.cur.Store(snap)
	m.sentinel.reset(snap.Seq)
	m.met.driftFlagged.Set(0)
	m.setState(StateServing)
	m.met.modelSeq.Set(int64(snap.Seq))
	fn := m.parseFuncFor(snap)
	for _, ps := range m.attached {
		ps.SetParseFunc(fn)
	}
	return snap
}

// ReloadFromFile loads the WMDL artifact at path and swaps it live —
// the SIGHUP / admin-reload path. The artifact is fully validated
// (magic, version, CRC, dimensions) before anything is published, so a
// torn or corrupt file leaves the old model serving.
func (m *Manager) ReloadFromFile(path string) (*Snapshot, error) {
	p, info, err := store.LoadModel(path)
	if err != nil {
		return nil, err
	}
	snap := m.Swap(p, info, path)
	m.met.reloads.Inc()
	return snap, nil
}

// versionString renders a snapshot's stamp: "m<seq>" for in-memory
// models, the artifact identity when there is one.
func versionString(seq uint64, info store.ModelInfo) string {
	if info.IsZero() {
		return fmt.Sprintf("m%d", seq)
	}
	return info.ID()
}

// nullOtherRate is the fraction of a record's retained lines labeled
// Null or Other — the block-level "the model recognized nothing here"
// measure. An empty record counts as fully unrecognized.
func nullOtherRate(rec *core.ParsedRecord) float64 {
	if len(rec.Blocks) == 0 {
		return 1
	}
	n := 0
	for _, b := range rec.Blocks {
		if b == labels.Null || b == labels.Other {
			n++
		}
	}
	return float64(n) / float64(len(rec.Blocks))
}
