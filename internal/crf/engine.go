package crf

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mathx"
)

// This file implements the reusable inference engine: a pooled scratch
// type holding flat backing arrays for the lattice and every dynamic-
// programming table, memoization of per-position score rows keyed by the
// observation-id signature of the line, Viterbi, and the one forward–
// backward kernel. WHOIS records are template-generated (§2.3), so a
// survey-scale workload sees a tiny set of distinct line shapes; caching
// the score rows turns the dominant O(T·|obs|·n²) lattice build into
// O(distinct·|obs|·n²) plus copies.
//
// Memoization invariants:
//   - A cached row is the byte-for-byte output of the direct computation
//     (same accumulation order), so cached and uncached inference agree
//     bit-identically. The differential tests in engine_test.go assert it.
//   - The model-level cache is only consulted for inference at the model's
//     own weights and is dropped whenever θ changes (SetTheta, Train,
//     WarmStartFrom). It is never valid across theta updates.
//   - With an explicit theta (the training loop), only the per-instance
//     memo inside the scratch is used, which cannot outlive the lattice
//     it was built for.
//
// Viterbi runs max-sum over the log-domain lattice. The forward–backward
// kernel runs in probability space on potentials it exponentiates into
// the per-call scratch only; the model-level cache keeps log scores.

// lattice holds the per-position log-domain score tables for one
// instance as flat backing arrays.
type lattice struct {
	n     int
	T     int
	state []float64 // [t*n + y]
	trans []float64 // [t*n*n + i*n + j], meaningful for t >= 1
}

func (l *lattice) stateRow(t int) []float64 { return l.state[t*l.n : (t+1)*l.n] }

func (l *lattice) transRow(t int) []float64 {
	nn := l.n * l.n
	return l.trans[t*nn : (t+1)*nn]
}

// memoEntry records where within the current instance a given observation
// signature was first scored. tTrans is -1 until a transition row has been
// computed for the signature (position 0 has no transition row).
type memoEntry struct {
	hash   uint64
	tState int32
	tTrans int32
}

// scratch bundles every buffer inference and training need, so that
// steady-state Decode/Marginals/Posterior/instanceNLL run without heap
// allocations. Obtain one with getScratch and return it with putScratch,
// or hold one per worker goroutine.
type scratch struct {
	lat   lattice
	psi   []float64 // [t*n*n + i*n + j] row-shifted exponentiated potentials, t >= 1
	w     []float64 // [t*n + i] forward row weights, t >= 1
	alpha []float64 // [t*n + j] scaled forward α̂
	beta  []float64 // [t*n + j] scaled backward β̂
	scale []float64 // [t] forward normalizer c_t
	back  []int32   // [t*n + j] Viterbi backpointers
	v     []float64 // n
	vNext []float64 // n
	prob  []float64 // n gradient node buffer
	edge  []float64 // n*n gradient edge buffer
	memo  []memoEntry
}

// ensure sizes every buffer for a T×n problem, reusing backing arrays
// whenever they are already large enough, and resets the per-instance memo.
func (s *scratch) ensure(T, n int) {
	s.lat.n, s.lat.T = n, T
	s.lat.state = growF64(s.lat.state, T*n)
	s.lat.trans = growF64(s.lat.trans, T*n*n)
	s.psi = growF64(s.psi, T*n*n)
	s.w = growF64(s.w, T*n)
	s.alpha = growF64(s.alpha, T*n)
	s.beta = growF64(s.beta, T*n)
	s.scale = growF64(s.scale, T)
	s.back = growI32(s.back, T*n)
	s.v = growF64(s.v, n)
	s.vNext = growF64(s.vNext, n)
	s.prob = growF64(s.prob, n)
	s.edge = growF64(s.edge, n*n)
	s.memo = s.memo[:0]
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// obsSignature hashes a position's observation ids (FNV-1a over the id
// words plus the length) into the memo/cache key.
func obsSignature(obs []int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, o := range obs {
		h ^= uint64(o)
		h *= prime
	}
	h ^= uint64(len(obs))
	h *= prime
	return h
}

func obsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// maxScoreCacheEntries bounds the model-level cache. At the paper's
// 6- and 12-state label spaces one entry is a few hundred bytes, so the
// cap keeps the cache in the low megabytes while covering far more line
// shapes than real WHOIS templates produce.
const maxScoreCacheEntries = 1 << 13

// scoreEntry caches the state and transition score rows of one line shape.
// Entries are immutable once published.
type scoreEntry struct {
	obs   []int
	state []float64 // n
	trans []float64 // n*n
}

// scoreCache memoizes score rows across records for a fixed θ. Reads are
// lock-free (sync.Map); a hash collision (different obs, same signature)
// is treated as a miss so correctness never depends on hash quality.
type scoreCache struct {
	entries sync.Map // uint64 -> *scoreEntry
	count   atomic.Int64
}

func (c *scoreCache) lookup(sig uint64, obs []int) (*scoreEntry, bool) {
	v, ok := c.entries.Load(sig)
	if !ok {
		return nil, false
	}
	e := v.(*scoreEntry)
	if !obsEqual(e.obs, obs) {
		return nil, false
	}
	return e, true
}

func (c *scoreCache) insert(sig uint64, obs []int, state, trans []float64) {
	if c.count.Load() >= maxScoreCacheEntries {
		return
	}
	e := &scoreEntry{
		obs:   append([]int(nil), obs...),
		state: append([]float64(nil), state...),
		trans: append([]float64(nil), trans...),
	}
	if _, loaded := c.entries.LoadOrStore(sig, e); !loaded {
		c.count.Add(1)
	}
}

// curCache returns the cache valid for the model's current θ.
func (m *Model) curCache() *scoreCache { return m.scores.Load() }

// invalidateScores drops all cached score rows; every θ mutation must call
// it (see the memoization invariants above).
func (m *Model) invalidateScores() { m.scores.Store(new(scoreCache)) }

// fillLattice populates s.lat for inst at theta. With a non-nil cache
// (inference at the model's own weights) score rows are shared across
// records; otherwise repeated observation signatures within the instance
// are detected and their rows copied. Both paths reproduce the direct
// computation bit-for-bit, because every cached row is the direct
// computation's output copied verbatim.
func (m *Model) fillLattice(s *scratch, theta []float64, inst Instance, cache *scoreCache) {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	s.ensure(T, n)
	lat := &s.lat
	for t := 0; t < T; t++ {
		obs := inst.Obs[t]
		sig := obsSignature(obs)
		st := lat.stateRow(t)
		if cache != nil {
			if e, ok := cache.lookup(sig, obs); ok {
				copy(st, e.state)
				if t >= 1 {
					copy(lat.transRow(t), e.trans)
				}
				continue
			}
			m.stateScores(theta, obs, st)
			if t >= 1 {
				tr := lat.transRow(t)
				m.transScores(theta, obs, tr)
				cache.insert(sig, obs, st, tr)
			}
			continue
		}
		if e := s.findMemo(sig); e != nil && obsEqual(obs, inst.Obs[e.tState]) {
			copy(st, lat.stateRow(int(e.tState)))
			if t >= 1 {
				if e.tTrans >= 1 {
					copy(lat.transRow(t), lat.transRow(int(e.tTrans)))
				} else {
					m.transScores(theta, obs, lat.transRow(t))
					e.tTrans = int32(t)
				}
			}
			continue
		}
		m.stateScores(theta, obs, st)
		tt := int32(-1)
		if t >= 1 {
			m.transScores(theta, obs, lat.transRow(t))
			tt = int32(t)
		}
		s.memo = append(s.memo, memoEntry{hash: sig, tState: int32(t), tTrans: tt})
	}
}

// findMemo returns the memo entry with the given hash, if any. The memo
// holds one entry per distinct line shape, so a linear scan is cheaper
// than a map for realistic record lengths.
func (s *scratch) findMemo(sig uint64) *memoEntry {
	for i := range s.memo {
		if s.memo[i].hash == sig {
			return &s.memo[i]
		}
	}
	return nil
}

// forward is the first half of the forward–backward kernel, the scaled
// recursion of Rabiner's HMM tutorial (as in CRFsuite), and returns logZ.
// It exponentiates each position's potentials once, shifting every row by
// its largest score r_{t,i} so no exp overflows:
// ψ_t[i,j] = exp(trans_t[i,j] + state_t[j] − r_{t,i}). The shifts come
// back as row weights w_t[i] = α̂_{t−1}[i]·exp(r_{t,i} − R_t), with R_t
// making the largest weight 1, so the row holding the forward mass never
// underflows. Then α̂_t = w_t·ψ_t / c_t, with c_t normalizing α̂_t to sum 1
// (α̂_0 is exp(state_0 − R_0) normalized), and logZ = Σ_t (log c_t + R_t).
func (s *scratch) forward() float64 {
	lat := &s.lat
	n, T, nn := lat.n, lat.T, lat.n*lat.n
	shift := mathx.NegInf
	for _, x := range lat.state[:n] {
		shift = max(shift, x)
	}
	for j, x := range lat.state[:n] {
		s.alpha[j] = math.Exp(x - shift)
	}
	s.scale[0] = normalize(s.alpha[:n])
	logZ := math.Log(s.scale[0]) + shift
	for t := 1; t < T; t++ {
		tr, st := lat.transRow(t), lat.stateRow(t)
		psi, w := s.psi[t*nn:(t+1)*nn], s.w[t*n:(t+1)*n]
		prev, cur := s.alpha[(t-1)*n:t*n], s.alpha[t*n:(t+1)*n]
		shift = mathx.NegInf
		for i := range w {
			row := psi[i*n : (i+1)*n]
			r := mathx.NegInf
			for j, x := range st {
				x += tr[i*n+j]
				row[j] = x
				r = max(r, x)
			}
			for j, x := range row {
				row[j] = math.Exp(x - r)
			}
			w[i] = math.Log(prev[i]) + r
			shift = max(shift, w[i])
		}
		mathx.Fill(cur, 0)
		for i, x := range w {
			w[i] = math.Exp(x - shift)
			for j, p := range psi[i*n : (i+1)*n] {
				cur[j] += w[i] * p
			}
		}
		s.scale[t] = normalize(cur)
		logZ += math.Log(s.scale[t]) + shift
	}
	return logZ
}

// normalize divides x by its sum and returns the sum.
func normalize(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v
	}
	for i := range x {
		x[i] /= sum
	}
	return sum
}

// backward is the kernel's second half, over what forward left in s,
// scaled so that α̂_t·β̂_t is the node marginal. A state forward cannot
// reach (α̂ = 0) gets β̂ = 0: every term using it is 0.
func (s *scratch) backward() {
	n, T, nn := s.lat.n, s.lat.T, s.lat.n*s.lat.n
	mathx.Fill(s.beta[(T-1)*n:T*n], 1)
	for t := T - 1; t >= 1; t-- {
		psi, w := s.psi[t*nn:(t+1)*nn], s.w[t*n:(t+1)*n]
		next, cur := s.beta[t*n:(t+1)*n], s.beta[(t-1)*n:t*n]
		prev := s.alpha[(t-1)*n : t*n]
		for i := range cur {
			if prev[i] == 0 {
				cur[i] = 0
				continue
			}
			var sum float64
			for j, p := range psi[i*n : (i+1)*n] {
				sum += p * next[j]
			}
			cur[i] = w[i] / prev[i] * sum / s.scale[t]
		}
	}
}

// nodeMarginals writes Pr(y_t = j | x) = α̂_t[j]·β̂_t[j] into dst
// (length n). Both forward and backward must have run.
func (s *scratch) nodeMarginals(t int, dst []float64) {
	n := s.lat.n
	a, b := s.alpha[t*n:(t+1)*n], s.beta[t*n:(t+1)*n]
	for j := range dst {
		dst[j] = a[j] * b[j]
	}
}

// edgeMarginals writes Pr(y_{t−1} = i, y_t = j | x) =
// w_t[i]·ψ_t[i,j]·β̂_t[j] / c_t into dst (length n*n, row = previous
// label), for t ≥ 1. Both forward and backward must have run.
func (s *scratch) edgeMarginals(t int, dst []float64) {
	n, nn := s.lat.n, s.lat.n*s.lat.n
	psi, w := s.psi[t*nn:(t+1)*nn], s.w[t*n:(t+1)*n]
	b := s.beta[t*n : (t+1)*n]
	for i, wi := range w {
		wi /= s.scale[t]
		for j, p := range psi[i*n : (i+1)*n] {
			dst[i*n+j] = wi * p * b[j]
		}
	}
}

// viterbiInto runs the max-product recursion (eq. 14-16) over the filled
// lattice using scratch buffers, writes the argmax path into path (length
// T), and returns its unnormalized log score.
func viterbiInto(lat *lattice, s *scratch, path []int) float64 {
	n, T := lat.n, lat.T
	v, vNext := s.v[:n], s.vNext[:n]
	copy(v, lat.state[:n])
	for t := 1; t < T; t++ {
		tr := lat.transRow(t)
		st := lat.stateRow(t)
		back := s.back[t*n : (t+1)*n]
		for j := 0; j < n; j++ {
			best := mathx.NegInf
			bestI := 0
			for i := 0; i < n; i++ {
				if sc := v[i] + tr[i*n+j]; sc > best {
					best, bestI = sc, i
				}
			}
			vNext[j] = best + st[j]
			back[j] = int32(bestI)
		}
		v, vNext = vNext, v
	}
	bestJ, bestScore := mathx.ArgMax(v)
	path[T-1] = bestJ
	for t := T - 1; t >= 1; t-- {
		path[t-1] = int(s.back[t*n+path[t]])
	}
	return bestScore
}
