package crf

// The public inference entry points below all run on pooled scratch
// buffers (see engine.go) and compute each position's score rows
// directly, so in steady state they allocate only their escaping outputs
// and keep no state between calls.

// Decode returns the Viterbi (maximum a posteriori) label sequence for the
// instance, together with its unnormalized log score (eq. 13). An empty
// instance decodes to an empty sequence.
func (m *Model) Decode(inst Instance) ([]int, float64) {
	T := len(inst.Obs)
	if T == 0 {
		return nil, 0
	}
	defer m.observeDecode(m.decodeStart(), T)
	s := getScratch()
	defer putScratch(s)
	m.fillLattice(s, inst)
	path := make([]int, T)
	score := viterbiInto(&s.lat, s, path)
	return path, score
}

// forwardBackward fills a pooled scratch for inst at the model's own
// weights and runs the whole kernel over it, returning the scratch (for
// the caller to putScratch) and logZ.
func (m *Model) forwardBackward(inst Instance) (*scratch, float64) {
	s := getScratch()
	m.fillLattice(s, inst)
	s.fillPsi()
	logZ := s.forward()
	s.backward()
	return s, logZ
}

// Marginals returns the per-position posterior Pr(y_t = j | x) as a
// T×n matrix (eq. 12 specializes to these node marginals).
func (m *Model) Marginals(inst Instance) [][]float64 {
	if len(inst.Obs) == 0 {
		return nil
	}
	s, _ := m.forwardBackward(inst)
	defer putScratch(s)
	return s.nodeMarginalRows()
}

// nodeMarginalRows copies every position's node marginals into a freshly
// allocated T×n matrix backed by one contiguous array.
func (s *scratch) nodeMarginalRows() [][]float64 {
	T, n := s.lat.T, s.lat.n
	out := make([][]float64, T)
	backing := make([]float64, T*n)
	for t := range out {
		out[t] = backing[t*n : (t+1)*n]
		s.nodeMarginals(t, out[t])
	}
	return out
}

// Posterior bundles everything one fused inference pass can produce: the
// Viterbi path with its unnormalized score, the node marginals, and logZ.
type Posterior struct {
	// Path is the Viterbi label sequence; Score its unnormalized log score.
	Path  []int
	Score float64
	// Marginals[t][j] is Pr(y_t = j | x).
	Marginals [][]float64
	// LogZ is the log normalization factor.
	LogZ float64
}

// Posterior builds the lattice once and runs Viterbi and forward-backward
// over it, so callers needing both the argmax path and its per-position
// posteriors (confidence scoring, active learning) pay one lattice build
// instead of the two that separate Decode + Marginals calls would cost.
func (m *Model) Posterior(inst Instance) Posterior {
	T := len(inst.Obs)
	if T == 0 {
		return Posterior{}
	}
	defer m.observeDecode(m.decodeStart(), T)
	s, logZ := m.forwardBackward(inst)
	defer putScratch(s)
	path := make([]int, T)
	score := viterbiInto(&s.lat, s, path)
	return Posterior{
		Path:      path,
		Score:     score,
		Marginals: s.nodeMarginalRows(),
		LogZ:      logZ,
	}
}
