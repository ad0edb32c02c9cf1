package crf

import (
	"math"
	"slices"
	"sync"

	"repro/internal/mathx"
)

// This file implements the reusable inference engine: a pooled scratch
// type holding flat backing arrays for the lattice and every dynamic-
// programming table, the score rows of each position, Viterbi, and the
// one forward–backward kernel.
//
// Inference (Decode, LogZ, the marginals, Posterior) computes every
// position's rows directly through addTo and keeps nothing between
// calls. A line's observation set carries every annotated word of its
// value (§3.3), so across distinct records it is close to unique, and a
// memo of rows by line shape would hit mostly on repeated text.
//
// Memoization invariants (training only):
//   - Training uses one shapeTable per gradient worker, holding the score
//     rows and also the forward kernel's ψ block and row maxima, at one
//     explicit θ. A hit saves the ψ block's n² exps, which cost far more
//     than summing the rows. The batch objective resets each worker's
//     table at the start of every Eval, and the SGD objective before
//     every example, so a table never outlives the θ it was filled at.
//     It is bounded by maxTableShapes; past the bound rows are computed
//     directly.
//   - A table row is the byte-for-byte output of the direct computation
//     (same accumulation order), so training with and without the table
//     agrees bit-identically. The differential tests in engine_test.go
//     assert it.
//
// Viterbi runs max-sum over the log-domain lattice. The forward–backward
// kernel runs in probability space on potentials it exponentiates into
// the per-call scratch or the training table only.

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

// scratch bundles every buffer inference and training need, so that
// steady-state Decode/Marginals/Posterior/instanceNLL run without heap
// allocations. Obtain one with getScratch and return it with putScratch,
// or hold one per worker goroutine.
type scratch struct {
	lat   lattice
	psi   []float64 // [t*n*n + i*n + j] row-shifted exponentiated potentials, t >= 1
	rmax  []float64 // [t*n + i] the shift of ψ_t's row i, t >= 1
	w     []float64 // [t*n + i] forward row weights, t >= 1
	alpha []float64 // [t*n + j] scaled forward α̂
	beta  []float64 // [t*n + j] scaled backward β̂
	scale []float64 // [t] forward normalizer c_t
	back  []int32   // [t*n + j] Viterbi backpointers
	v     []float64 // n
	vNext []float64 // n
	prob  []float64 // n gradient node buffer
	edge  []float64 // n*n gradient edge buffer
}

// ensure sizes every buffer for a T×n problem, reusing backing arrays
// whenever they are already large enough.
func (s *scratch) ensure(T, n int) {
	s.lat.n, s.lat.T = n, T
	s.lat.state = growF64(s.lat.state, T*n)
	s.lat.trans = growF64(s.lat.trans, T*n*n)
	s.psi = growF64(s.psi, T*n*n)
	s.rmax = growF64(s.rmax, T*n)
	s.w = growF64(s.w, T*n)
	s.alpha = growF64(s.alpha, T*n)
	s.beta = growF64(s.beta, T*n)
	s.scale = growF64(s.scale, T)
	s.back = growI32(s.back, T*n)
	s.v = growF64(s.v, n)
	s.vNext = growF64(s.vNext, n)
	s.prob = growF64(s.prob, n)
	s.edge = growF64(s.edge, n*n)
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
// words plus the length) into the training table's key.
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

// fillLattice populates s.lat for inst at the model's own weights,
// computing every position's state and transition rows directly.
func (m *Model) fillLattice(s *scratch, inst Instance) {
	s.ensure(len(inst.Obs), m.cfg.NumStates)
	lat := &s.lat
	for t, obs := range inst.Obs {
		m.stateScores(m.theta, obs, lat.stateRow(t))
		if t >= 1 {
			m.transScores(m.theta, obs, lat.transRow(t))
		}
	}
}

// maxTableShapes bounds a training table. One shape holds n²+2n floats,
// 1.3 KiB at the paper's 12 field labels, so a full table stays under
// 6 MiB per gradient worker; past the bound, a new shape's rows are
// computed directly at every position.
const maxTableShapes = 1 << 12

// shapeTable is one training worker's memo for a single θ. For each line
// shape it keeps, in one block of its arena, the state row and the
// forward kernel's row-shifted ψ block with its row maxima, so a repeated
// shape costs copies instead of transScores and n² exps. (Training reads
// no transition score but the gold path's, which labelScore computes on
// its own.) A signature held by another shape, a hash collision, is
// treated as a miss. Call reset before using the table at a new θ.
type shapeTable struct {
	index  map[uint64]int32 // signature -> shape
	shapes []tableShape
	rows   []float64 // shape i's block at [i*stride, (i+1)*stride)
}

// tableShape is one line shape's entry. hasPsi reports whether its block
// holds ψ and the row maxima besides the state row: they are filled the
// first time the shape appears past position 0.
type tableShape struct {
	obs    []int
	hasPsi bool
}

// reset empties the table, keeping its storage.
func (tb *shapeTable) reset() {
	clear(tb.index)
	tb.shapes = tb.shapes[:0]
	tb.rows = tb.rows[:0]
}

// fillTrainLattice fills s's state rows, ψ blocks and row maxima for inst
// at theta, everything the forward–backward kernel reads, taking the rows
// of a shape already in tab from there. A nil tab computes every row
// directly. The lattice's transition rows are left as scratch.
func (m *Model) fillTrainLattice(s *scratch, tab *shapeTable, theta []float64, inst Instance) {
	n := m.cfg.NumStates
	nn := n * n
	stride := 2*n + nn
	s.ensure(len(inst.Obs), n)
	lat := &s.lat
	for t, obs := range inst.Obs {
		st := lat.stateRow(t)
		var psi, rmax []float64
		if t >= 1 {
			psi, rmax = s.psi[t*nn:(t+1)*nn], s.rmax[t*n:(t+1)*n]
		}
		e, block, fresh := tab.shape(obs, stride)
		if e == nil {
			m.stateScores(theta, obs, st)
			if t >= 1 {
				tr := lat.transRow(t)
				m.transScores(theta, obs, tr)
				psiBlock(st, tr, psi, rmax)
			}
			continue
		}
		bst := block[:n]
		if fresh {
			m.stateScores(theta, obs, bst)
		}
		copy(st, bst)
		if t == 0 {
			continue
		}
		bpsi, brmax := block[n:n+nn], block[n+nn:]
		if !e.hasPsi {
			tr := lat.transRow(t)
			m.transScores(theta, obs, tr)
			psiBlock(bst, tr, bpsi, brmax)
			e.hasPsi = true
		}
		copy(psi, bpsi)
		copy(rmax, brmax)
	}
}

// shape returns obs's entry and block, adding the shape with an unfilled
// block (fresh) on a miss. It returns a nil entry when the shape cannot
// be kept: tab is nil or full, or obs's signature belongs to another
// shape.
func (tb *shapeTable) shape(obs []int, stride int) (e *tableShape, block []float64, fresh bool) {
	if tb == nil {
		return nil, nil, false
	}
	sig := obsSignature(obs)
	if i, ok := tb.index[sig]; ok {
		if e := &tb.shapes[i]; obsEqual(e.obs, obs) {
			return e, tb.rows[int(i)*stride : (int(i)+1)*stride], false
		}
		return nil, nil, false
	}
	if len(tb.shapes) >= maxTableShapes {
		return nil, nil, false
	}
	if tb.index == nil {
		tb.index = make(map[uint64]int32)
	}
	i := len(tb.shapes)
	tb.index[sig] = int32(i)
	tb.shapes = append(tb.shapes, tableShape{obs: obs})
	tb.rows = slices.Grow(tb.rows, stride)[:(i+1)*stride]
	return &tb.shapes[i], tb.rows[i*stride:], true
}

// psiBlock exponentiates one position's potentials, shifting every row
// by its largest score r_i so no exp overflows:
// psi[i,j] = exp(tr[i,j] + st[j] − r_i), with r_i written to rmax[i].
func psiBlock(st, tr, psi, rmax []float64) {
	n := len(st)
	for i := range rmax {
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
		rmax[i] = r
	}
}

// fillPsi runs psiBlock at every position t ≥ 1 of the filled lattice.
func (s *scratch) fillPsi() {
	lat := &s.lat
	n, nn := lat.n, lat.n*lat.n
	for t := 1; t < lat.T; t++ {
		psiBlock(lat.stateRow(t), lat.transRow(t), s.psi[t*nn:(t+1)*nn], s.rmax[t*n:(t+1)*n])
	}
}

// forward is the first half of the forward–backward kernel, the scaled
// recursion of Rabiner's HMM tutorial (as in CRFsuite), and returns logZ.
// It runs over the ψ blocks and row maxima r_{t,i} of psiBlock, which
// fillPsi or fillTrainLattice left in s. The row shifts come back as row
// weights w_t[i] = α̂_{t−1}[i]·exp(r_{t,i} − R_t), with R_t making the
// largest weight 1, so the row holding the forward mass never
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
		psi, w, rmax := s.psi[t*nn:(t+1)*nn], s.w[t*n:(t+1)*n], s.rmax[t*n:(t+1)*n]
		prev, cur := s.alpha[(t-1)*n:t*n], s.alpha[t*n:(t+1)*n]
		shift = mathx.NegInf
		for i, r := range rmax {
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
