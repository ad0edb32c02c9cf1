// Package crf implements the linear-chain conditional random field of the
// paper (§3.1, Appendix A): binary features over (previous label, label,
// line observations), a log-linear posterior over label sequences,
// forward–backward inference for the normalizer and marginals, Viterbi
// decoding, and maximum-likelihood training with L2 regularization via
// L-BFGS or SGD.
//
// Observations are small integer ids produced by a tokenize.Dictionary.
// The parameter vector θ is laid out densely in four contiguous blocks:
//
//	state:    θ[o*n + y]                        one weight per (obs, label)
//	bias:     θ[stateLen + y]                   one per label
//	trans:    θ[biasEnd + i*n + j]              one per (label, label)
//	transObs: θ[transBase + r*n*n + i*n + j]    per (transition obs, i, j)
//
// where n is the number of states and r ranks the subset of observations
// that participate in transition features (eq. 8 of the paper: features
// examining both y_{t-1} and y_t). At t = 0 transition features are
// skipped, matching the paper's footnote 8.
package crf

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/tokenize"
)

// Instance is one token sequence ready for inference: per position, the
// dictionary ids of the active observations. Labels carries gold labels
// during training and may be nil at prediction time.
type Instance struct {
	Obs    [][]int
	Labels []int
}

// Config controls feature generation and regularization.
type Config struct {
	// NumStates is the size of the label space (6 or 12 in the paper).
	NumStates int
	// TransMinCount is the dictionary frequency an observation needs to
	// participate in transition features. Closed-class markers (NL, SEP,
	// SHL, SYM, CLS:*) always participate. A value <= 0 means every
	// dictionary observation participates (the paper's ~1M-feature
	// first-level CRF).
	TransMinCount int
	// DisableTransObs drops observation-conditioned transition features
	// entirely, leaving only the (i, j) label-bigram table. Used by the
	// ablation benchmarks.
	DisableTransObs bool
	// L2 is the coefficient of the 0.5·L2·‖θ‖² regularizer.
	L2 float64
}

// Model is a trained (or trainable) linear-chain CRF.
type Model struct {
	cfg  Config
	dict *tokenize.Dictionary

	theta []float64

	// transRank maps an observation id to its rank in the transition-
	// feature block, or -1 if the observation has no transition features.
	transRank []int
	numTrans  int

	stateLen  int // dict.Len() * n
	biasBase  int
	transBase int // start of the (i,j) bigram table
	tobsBase  int // start of the obs-conditioned transition block

	// met, when non-nil, receives decode latency and token throughput
	// (see Instrument). Set once before concurrent use.
	met *modelMetrics
}

// modelMetrics are the inference-path observability handles.
type modelMetrics struct {
	decodeSeconds *obs.Histogram
	decodes       *obs.Counter
	tokens        *obs.Counter
}

// Instrument wires the model's inference hot paths (Decode, Posterior)
// into reg under <prefix>.decode.seconds, <prefix>.decodes, and
// <prefix>.tokens — tokens being label positions decoded, so tokens/s is
// tokens ÷ decode.seconds sum. Call before the model is shared across
// goroutines; the recording itself is lock-free.
func (m *Model) Instrument(reg *obs.Registry, prefix string) {
	m.met = &modelMetrics{
		decodeSeconds: reg.Histogram(prefix+".decode.seconds", obs.DurationBounds()),
		decodes:       reg.Counter(prefix + ".decodes"),
		tokens:        reg.Counter(prefix + ".tokens"),
	}
}

// observeDecode records one inference pass over T positions.
func (m *Model) observeDecode(start time.Time, T int) {
	if m.met == nil {
		return
	}
	m.met.decodeSeconds.ObserveSince(start)
	m.met.decodes.Inc()
	m.met.tokens.Add(uint64(T))
}

// decodeStart returns the wall-clock start for observeDecode, avoiding
// the time.Now call entirely on uninstrumented models.
func (m *Model) decodeStart() time.Time {
	if m.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// New builds an untrained model over the given dictionary. The feature
// space is fixed at construction: every dictionary entry gets state
// features, and entries passing TransMinCount (plus closed-class markers)
// additionally get transition features.
func New(dict *tokenize.Dictionary, cfg Config) *Model {
	if cfg.NumStates <= 0 {
		panic("crf: NumStates must be positive")
	}
	n := cfg.NumStates
	m := &Model{cfg: cfg, dict: dict}
	m.transRank = make([]int, dict.Len())
	for i := range m.transRank {
		m.transRank[i] = -1
	}
	if !cfg.DisableTransObs {
		for id := 0; id < dict.Len(); id++ {
			name := dict.Name(id)
			if cfg.TransMinCount <= 0 || dict.Count(id) >= cfg.TransMinCount || isClosedClassObs(name) {
				m.transRank[id] = m.numTrans
				m.numTrans++
			}
		}
	}
	m.stateLen = dict.Len() * n
	m.biasBase = m.stateLen
	m.transBase = m.biasBase + n
	m.tobsBase = m.transBase + n*n
	m.theta = make([]float64, m.tobsBase+m.numTrans*n*n)
	return m
}

func isClosedClassObs(name string) bool {
	switch name {
	case tokenize.MarkNL, tokenize.MarkSHL, tokenize.MarkSHR, tokenize.MarkSYM,
		tokenize.MarkSEP, tokenize.MarkNoV, tokenize.MarkBOL, tokenize.MarkEOL:
		return true
	}
	return len(name) > 4 && name[:4] == "CLS:"
}

// NumFeatures reports the dimensionality of θ.
func (m *Model) NumFeatures() int { return len(m.theta) }

// Dict exposes the model's observation dictionary.
func (m *Model) Dict() *tokenize.Dictionary { return m.dict }

// Theta exposes the raw parameter vector. Callers must treat it as
// read-only; Trainer mutates it during fitting.
func (m *Model) Theta() []float64 { return m.theta }

// SetTheta replaces the parameter vector; the length must match.
func (m *Model) SetTheta(theta []float64) error {
	if len(theta) != len(m.theta) {
		return fmt.Errorf("crf: SetTheta length %d, want %d", len(theta), len(m.theta))
	}
	copy(m.theta, theta)
	return nil
}

// MapLines converts tokenized lines into an Instance using the model's
// dictionary. Unknown observations are dropped.
func (m *Model) MapLines(lines []tokenize.Line) Instance {
	obs := make([][]int, len(lines))
	for i, ln := range lines {
		obs[i] = m.dict.MapLine(ln)
	}
	return Instance{Obs: obs}
}

// stateScores fills dst (length n) with the emission score of each label
// at a position with the given observations, using theta: the bias row
// plus each observation's row, summed in observation order.
func (m *Model) stateScores(theta []float64, obs []int, dst []float64) {
	n := m.cfg.NumStates
	dst = dst[:n]
	copy(dst, theta[m.biasBase:])
	for _, o := range obs {
		addTo(dst, theta[o*n:])
	}
}

// transScores fills dst (length n*n, row = previous label) with the
// transition score into a position with the given observations: the
// label-bigram block plus each ranked observation's block, summed in
// observation order.
func (m *Model) transScores(theta []float64, obs []int, dst []float64) {
	nn := m.cfg.NumStates * m.cfg.NumStates
	dst = dst[:nn]
	copy(dst, theta[m.transBase:])
	if m.numTrans == 0 {
		return
	}
	for _, o := range obs {
		if r := m.transRank[o]; r >= 0 {
			addTo(dst, theta[m.tobsBase+r*nn:])
		}
	}
}

// addTo adds src[k] to dst[k] for every k < len(dst), four elements per
// step and then the tail. Reslicing src to len(dst) lets the compiler
// drop every bounds check inside both loops. Each element still gets one
// addition, so the result is the same bits as the plain loop.
func addTo(dst, src []float64) {
	src = src[:len(dst)]
	for len(dst) >= 4 && len(src) >= 4 {
		dst[0] += src[0]
		dst[1] += src[1]
		dst[2] += src[2]
		dst[3] += src[3]
		dst, src = dst[4:], src[4:]
	}
	src = src[:len(dst)]
	for k, x := range src {
		dst[k] += x
	}
}

// modelDTO is the gob-serializable snapshot of a Model.
type modelDTO struct {
	Cfg       Config
	DictNames []string
	DictCount []int
	Theta     []float64
}

// WriteTo serializes the model (configuration, dictionary, parameters).
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	dto := modelDTO{Cfg: m.cfg, Theta: m.theta}
	dto.DictNames = make([]string, m.dict.Len())
	dto.DictCount = make([]int, m.dict.Len())
	for i := 0; i < m.dict.Len(); i++ {
		dto.DictNames[i] = m.dict.Name(i)
		dto.DictCount[i] = m.dict.Count(i)
	}
	cw := &countWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(dto); err != nil {
		return cw.n, fmt.Errorf("crf: encode model: %w", err)
	}
	return cw.n, nil
}

// Read deserializes a model written by WriteTo.
func Read(r io.Reader) (*Model, error) {
	var dto modelDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("crf: decode model: %w", err)
	}
	dict, err := tokenize.DictionaryFrom(dto.DictNames, dto.DictCount)
	if err != nil {
		return nil, fmt.Errorf("crf: decode model: %w", err)
	}
	m := New(dict, dto.Cfg)
	if err := m.SetTheta(dto.Theta); err != nil {
		return nil, err
	}
	return m, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WeightedObs pairs an observation name with a learned weight, for model
// introspection (Table 1 / Figure 1 of the paper).
type WeightedObs struct {
	Obs    string
	Weight float64
}

// TopStateFeatures returns the k highest-weighted emission observations
// for the given label, mirroring Table 1.
func (m *Model) TopStateFeatures(label, k int) []WeightedObs {
	n := m.cfg.NumStates
	out := make([]WeightedObs, 0, m.dict.Len())
	for o := 0; o < m.dict.Len(); o++ {
		out = append(out, WeightedObs{Obs: m.dict.Name(o), Weight: m.theta[o*n+label]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// TransFeature describes one observation-conditioned transition weight,
// for Figure 1-style introspection.
type TransFeature struct {
	Obs      string
	From, To int
	Weight   float64
}

// TopTransitionFeatures returns the k highest-weighted observation-
// conditioned transition features between distinct labels.
func (m *Model) TopTransitionFeatures(k int) []TransFeature {
	n := m.cfg.NumStates
	var out []TransFeature
	for o := 0; o < m.dict.Len(); o++ {
		r := m.transRank[o]
		if r < 0 {
			continue
		}
		base := m.tobsBase + r*n*n
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				w := m.theta[base+i*n+j]
				if w != 0 {
					out = append(out, TransFeature{Obs: m.dict.Name(o), From: i, To: j, Weight: w})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	if k < len(out) {
		out = out[:k]
	}
	return out
}
