package crf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mathx"
	"repro/internal/tokenize"
)

// Differential tests for the pooled inference engine: the naive
// implementations below are the pre-engine code (fresh [][]float64 tables,
// plain score loops, no pooling, log-space forward–backward) kept as the
// reference. Viterbi must reproduce it bit-identically: the addTo kernel
// sums every score element in the reference loops' order, and the max-sum
// recursion performs the same floating-point operations in the same
// order. The probability-space kernel must agree with the log-space
// recursion within near's bound, and repeated passes must agree
// bit-identically.

// near reports |a−b| ≤ 1e-9·max(1,|b|), the bound the scaled kernel keeps
// against the log-space reference.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func expSafe(x float64) float64 {
	if x > 0 {
		x = 0 // marginal log-probabilities are <= 0 up to rounding
	}
	if x < -745 {
		return 0
	}
	return math.Exp(x)
}

type naiveLattice struct {
	n     int
	T     int
	state [][]float64
	trans [][]float64
}

func (m *Model) naiveBuildLattice(theta []float64, inst Instance) *naiveLattice {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	lat := &naiveLattice{n: n, T: T}
	lat.state = make([][]float64, T)
	lat.trans = make([][]float64, T)
	for t := 0; t < T; t++ {
		lat.state[t] = make([]float64, n)
		m.naiveStateScores(theta, inst.Obs[t], lat.state[t])
		if t >= 1 {
			lat.trans[t] = make([]float64, n*n)
			m.naiveTransScores(theta, inst.Obs[t], lat.trans[t])
		}
	}
	return lat
}

// naiveStateScores is the plain emission loop the addTo kernel must
// reproduce bit for bit: the bias row, then each observation's row.
func (m *Model) naiveStateScores(theta []float64, obs []int, dst []float64) {
	n := m.cfg.NumStates
	for y := 0; y < n; y++ {
		dst[y] = theta[m.biasBase+y]
	}
	for _, o := range obs {
		for y := 0; y < n; y++ {
			dst[y] += theta[o*n+y]
		}
	}
}

// naiveTransScores is the plain transition loop: the label-bigram block,
// then each ranked observation's block.
func (m *Model) naiveTransScores(theta []float64, obs []int, dst []float64) {
	nn := m.cfg.NumStates * m.cfg.NumStates
	for k := 0; k < nn; k++ {
		dst[k] = theta[m.transBase+k]
	}
	for _, o := range obs {
		r := m.transRank[o]
		if r < 0 {
			continue
		}
		for k := 0; k < nn; k++ {
			dst[k] += theta[m.tobsBase+r*nn+k]
		}
	}
}

func naiveForward(lat *naiveLattice) [][]float64 {
	n, T := lat.n, lat.T
	alpha := make([][]float64, T)
	buf := make([]float64, n)
	for t := 0; t < T; t++ {
		alpha[t] = make([]float64, n)
		if t == 0 {
			copy(alpha[0], lat.state[0])
			continue
		}
		tr := lat.trans[t]
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				buf[i] = alpha[t-1][i] + tr[i*n+j]
			}
			alpha[t][j] = logSumExpSlice(buf) + lat.state[t][j]
		}
	}
	return alpha
}

func naiveBackward(lat *naiveLattice) [][]float64 {
	n, T := lat.n, lat.T
	beta := make([][]float64, T)
	buf := make([]float64, n)
	for t := T - 1; t >= 0; t-- {
		beta[t] = make([]float64, n)
		if t == T-1 {
			continue
		}
		tr := lat.trans[t+1]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				buf[j] = tr[i*n+j] + lat.state[t+1][j] + beta[t+1][j]
			}
			beta[t][i] = logSumExpSlice(buf)
		}
	}
	return beta
}

func naiveSeqScore(lat *naiveLattice, y []int) float64 {
	var s float64
	for t := 0; t < lat.T; t++ {
		s += lat.state[t][y[t]]
		if t >= 1 {
			s += lat.trans[t][y[t-1]*lat.n+y[t]]
		}
	}
	return s
}

func (m *Model) naiveDecode(inst Instance) ([]int, float64) {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	if T == 0 {
		return nil, 0
	}
	lat := m.naiveBuildLattice(m.theta, inst)
	v := make([]float64, n)
	vNext := make([]float64, n)
	back := make([][]int32, T)
	copy(v, lat.state[0])
	for t := 1; t < T; t++ {
		back[t] = make([]int32, n)
		tr := lat.trans[t]
		for j := 0; j < n; j++ {
			best := mathx.NegInf
			bestI := 0
			for i := 0; i < n; i++ {
				if s := v[i] + tr[i*n+j]; s > best {
					best, bestI = s, i
				}
			}
			vNext[j] = best + lat.state[t][j]
			back[t][j] = int32(bestI)
		}
		v, vNext = vNext, v
	}
	bestJ, bestScore := mathx.ArgMax(v)
	path := make([]int, T)
	path[T-1] = bestJ
	for t := T - 1; t >= 1; t-- {
		path[t-1] = int(back[t][path[t]])
	}
	return path, bestScore
}

func (m *Model) naiveLogZ(inst Instance) float64 {
	lat := m.naiveBuildLattice(m.theta, inst)
	if lat.T == 0 {
		return 0
	}
	return logSumExpSlice(naiveForward(lat)[lat.T-1])
}

func (m *Model) naiveMarginals(inst Instance) [][]float64 {
	lat := m.naiveBuildLattice(m.theta, inst)
	if lat.T == 0 {
		return nil
	}
	alpha := naiveForward(lat)
	beta := naiveBackward(lat)
	logZ := logSumExpSlice(alpha[lat.T-1])
	out := make([][]float64, lat.T)
	for t := 0; t < lat.T; t++ {
		out[t] = make([]float64, lat.n)
		for j := 0; j < lat.n; j++ {
			out[t][j] = math.Exp(alpha[t][j] + beta[t][j] - logZ)
		}
	}
	return out
}

func (m *Model) naiveEdgeMarginals(inst Instance) [][]float64 {
	lat := m.naiveBuildLattice(m.theta, inst)
	if lat.T == 0 {
		return nil
	}
	alpha := naiveForward(lat)
	beta := naiveBackward(lat)
	logZ := logSumExpSlice(alpha[lat.T-1])
	n := lat.n
	out := make([][]float64, lat.T)
	for t := 1; t < lat.T; t++ {
		out[t] = make([]float64, n*n)
		tr := lat.trans[t]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out[t][i*n+j] = math.Exp(alpha[t-1][i] + tr[i*n+j] + lat.state[t][j] + beta[t][j] - logZ)
			}
		}
	}
	return out
}

func (m *Model) naiveInstanceNLL(theta []float64, inst Instance, grad []float64) float64 {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	if T == 0 {
		return 0
	}
	lat := m.naiveBuildLattice(theta, inst)
	alpha := naiveForward(lat)
	beta := naiveBackward(lat)
	logZ := logSumExpSlice(alpha[T-1])
	gold := naiveSeqScore(lat, inst.Labels)
	nll := logZ - gold
	if grad == nil {
		return nll
	}
	prob := make([]float64, n)
	for t := 0; t < T; t++ {
		var norm float64
		for j := 0; j < n; j++ {
			p := expSafe(alpha[t][j] + beta[t][j] - logZ)
			prob[j] = p
			norm += p
		}
		if norm > 0 {
			for j := 0; j < n; j++ {
				prob[j] /= norm
			}
		}
		prob[inst.Labels[t]] -= 1
		for j := 0; j < n; j++ {
			p := prob[j]
			if p == 0 {
				continue
			}
			grad[m.biasBase+j] += p
			for _, o := range inst.Obs[t] {
				grad[o*n+j] += p
			}
		}
	}
	edge := make([]float64, n*n)
	for t := 1; t < T; t++ {
		tr := lat.trans[t]
		var norm float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p := expSafe(alpha[t-1][i] + tr[i*n+j] + lat.state[t][j] + beta[t][j] - logZ)
				edge[i*n+j] = p
				norm += p
			}
		}
		if norm > 0 {
			for k := range edge {
				edge[k] /= norm
			}
		}
		edge[inst.Labels[t-1]*n+inst.Labels[t]] -= 1
		for k, p := range edge {
			if p == 0 {
				continue
			}
			grad[m.transBase+k] += p
		}
		for _, o := range inst.Obs[t] {
			r := m.transRank[o]
			if r < 0 {
				continue
			}
			base := m.tobsBase + r*n*n
			for k, p := range edge {
				if p != 0 {
					grad[base+k] += p
				}
			}
		}
	}
	return nll
}

// repeatingInstance builds an instance where a handful of line shapes
// recur many times, the pattern the memoization paths exist for.
func repeatingInstance(rng *rand.Rand, dictLen, T, nShapes int, labeled bool, nStates int) Instance {
	shapes := make([][]int, nShapes)
	for i := range shapes {
		k := 1 + rng.Intn(4)
		shapes[i] = make([]int, k)
		for j := range shapes[i] {
			shapes[i][j] = rng.Intn(dictLen)
		}
	}
	inst := Instance{Obs: make([][]int, T)}
	for t := 0; t < T; t++ {
		inst.Obs[t] = shapes[rng.Intn(nShapes)]
	}
	if labeled {
		inst.Labels = make([]int, T)
		for t := range inst.Labels {
			inst.Labels[t] = rng.Intn(nStates)
		}
	}
	return inst
}

func TestEngineMatchesNaiveDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	dict := makeDict(t, 14)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		var inst Instance
		if trial%2 == 0 {
			inst = repeatingInstance(rng, dict.Len(), 2+rng.Intn(30), 1+rng.Intn(4), false, n)
		} else {
			inst = randomInstance(rng, dict, 1+rng.Intn(12), n, false)
		}
		wantPath, wantScore := m.naiveDecode(inst)
		// Run twice: the second call reuses the pooled scratch the first
		// filled.
		for pass := 0; pass < 2; pass++ {
			gotPath, gotScore := m.Decode(inst)
			if gotScore != wantScore {
				t.Fatalf("trial %d pass %d: score %v != naive %v", trial, pass, gotScore, wantScore)
			}
			for i := range wantPath {
				if gotPath[i] != wantPath[i] {
					t.Fatalf("trial %d pass %d: path differs at %d", trial, pass, i)
				}
			}
		}
	}
}

// kernelTrial draws a model and a repeating instance: the engine tests'
// original sizes for the first 40 trials, then up to 12 states and 60
// positions.
func kernelTrial(rng *rand.Rand, dict *tokenize.Dictionary, trial int, labeled bool) (*Model, Instance) {
	n, T := 2+rng.Intn(4), 2+rng.Intn(30)
	if trial >= 40 {
		n, T = 6+rng.Intn(7), 30+rng.Intn(31)
	}
	m := randomModel(rng, dict, n)
	return m, repeatingInstance(rng, dict.Len(), T, 1+rng.Intn(5), labeled, n)
}

func TestEngineMatchesNaiveMarginalsAndLogZ(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	dict := makeDict(t, 14)
	for trial := 0; trial < 60; trial++ {
		m, inst := kernelTrial(rng, dict, trial, false)
		checkAgainstNaive(t, m, inst, fmt.Sprintf("trial %d", trial))
	}
}

// checkAgainstNaive runs LogZ, Marginals and EdgeMarginals twice (the
// second pass reuses the pooled scratch the first filled): the passes
// must agree exactly, and both must be finite and near the log-space
// reference.
func checkAgainstNaive(t *testing.T, m *Model, inst Instance, label string) {
	t.Helper()
	wantZ := m.naiveLogZ(inst)
	wantM := m.naiveMarginals(inst)
	wantE := m.naiveEdgeMarginals(inst)
	check := func(what string, got, want float64) {
		t.Helper()
		if math.IsNaN(got) || math.IsInf(got, 0) || !near(got, want) {
			t.Fatalf("%s: %s %v, naive %v", label, what, got, want)
		}
	}
	var firstZ float64
	var firstM, firstE [][]float64
	for pass := 0; pass < 2; pass++ {
		gotZ := m.LogZ(inst)
		gotM := m.Marginals(inst)
		gotE := m.EdgeMarginals(inst)
		if pass == 0 {
			firstZ, firstM, firstE = gotZ, gotM, gotE
		} else if gotZ != firstZ || !reflect.DeepEqual(gotM, firstM) || !reflect.DeepEqual(gotE, firstE) {
			t.Fatalf("%s: second pass differs from the first", label)
		}
		check("LogZ", gotZ, wantZ)
		for tt := range wantM {
			for j := range wantM[tt] {
				check(fmt.Sprintf("marginal [%d][%d]", tt, j), gotM[tt][j], wantM[tt][j])
			}
		}
		if gotE[0] != nil {
			t.Fatalf("%s: edge marginal at t=0 is not nil", label)
		}
		for tt := 1; tt < len(wantE); tt++ {
			for k := range wantE[tt] {
				check(fmt.Sprintf("edge marginal [%d][%d]", tt, k), gotE[tt][k], wantE[tt][k])
			}
		}
	}
}

func TestEngineMatchesNaiveGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	dict := makeDict(t, 12)
	var s scratch
	var tab shapeTable
	for trial := 0; trial < 45; trial++ {
		m, inst := kernelTrial(rng, dict, 15+trial, true)
		tab.reset() // a new model is a new θ
		checkGradient(t, m, &s, &tab, inst, fmt.Sprintf("trial %d", trial))
		// Scratch and table reuse across instances must not leak state.
		inst2 := randomInstance(rng, dict, 1+rng.Intn(8), m.NumStates(), true)
		checkGradient(t, m, &s, &tab, inst2, fmt.Sprintf("trial %d, reused scratch", trial))
	}
}

// checkGradient asserts instanceNLL's value and every gradient component
// are finite and near the log-space reference.
func checkGradient(t *testing.T, m *Model, s *scratch, tab *shapeTable, inst Instance, label string) {
	t.Helper()
	theta := m.Theta()
	wantGrad := make([]float64, m.NumFeatures())
	wantNLL := m.naiveInstanceNLL(theta, inst, wantGrad)
	gotGrad := make([]float64, m.NumFeatures())
	gotNLL := m.instanceNLL(s, tab, theta, inst, gotGrad)
	if math.IsNaN(gotNLL) || math.IsInf(gotNLL, 0) || !near(gotNLL, wantNLL) {
		t.Fatalf("%s: nll %v, naive %v", label, gotNLL, wantNLL)
	}
	for k := range wantGrad {
		if math.IsNaN(gotGrad[k]) || !near(gotGrad[k], wantGrad[k]) {
			t.Fatalf("%s: grad[%d] %v, naive %v", label, k, gotGrad[k], wantGrad[k])
		}
	}
}

// TestKernelSurvivesOverflow scales unit-normal weights by 100 (the
// σ = 0.5 weights of randomModel by 200) so single-position scores pass
// 709, where exp overflows: the kernel's NLL, gradient, Posterior.LogZ and
// marginals must stay finite and near the log-space reference.
func TestKernelSurvivesOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	dict := makeDict(t, 12)
	var s scratch
	var maxScore float64
	for trial := 0; trial < 20; trial++ {
		m, inst := kernelTrial(rng, dict, 40+trial, true)
		theta := mathx.Clone(m.Theta())
		for i := range theta {
			theta[i] *= 200
		}
		if err := m.SetTheta(theta); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d", trial)
		checkGradient(t, m, &s, nil, inst, label)
		checkAgainstNaive(t, m, inst, label)
		post, want := m.Posterior(inst), m.naiveLogZ(inst)
		if math.IsInf(post.LogZ, 0) || !near(post.LogZ, want) {
			t.Fatalf("%s: Posterior.LogZ %v, naive %v", label, post.LogZ, want)
		}
		lat := &s.lat
		for tt := 1; tt < lat.T; tt++ {
			for k, x := range lat.transRow(tt) {
				maxScore = math.Max(maxScore, math.Abs(x+lat.stateRow(tt)[k%lat.n]))
			}
		}
	}
	if maxScore <= 709 {
		t.Fatalf("largest position score %v never overflows exp", maxScore)
	}
}

func TestPosteriorMatchesSeparateCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	dict := makeDict(t, 12)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		inst := repeatingInstance(rng, dict.Len(), 1+rng.Intn(25), 1+rng.Intn(4), false, n)
		post := m.Posterior(inst)
		path, score := m.Decode(inst)
		marg := m.Marginals(inst)
		logZ := m.LogZ(inst)
		if post.Score != score || post.LogZ != logZ {
			t.Fatalf("trial %d: posterior (score %v, logZ %v) vs separate (%v, %v)",
				trial, post.Score, post.LogZ, score, logZ)
		}
		for i := range path {
			if post.Path[i] != path[i] {
				t.Fatalf("trial %d: posterior path differs at %d", trial, i)
			}
		}
		for tt := range marg {
			for j := range marg[tt] {
				if post.Marginals[tt][j] != marg[tt][j] {
					t.Fatalf("trial %d: posterior marginal [%d][%d] differs", trial, tt, j)
				}
			}
		}
	}
}

func TestPosteriorEmptyInstance(t *testing.T) {
	dict := makeDict(t, 3)
	m := New(dict, Config{NumStates: 2})
	post := m.Posterior(Instance{})
	if post.Path != nil || post.Marginals != nil || post.LogZ != 0 || post.Score != 0 {
		t.Errorf("empty posterior: %+v", post)
	}
}

// TestDecodeFollowsThetaChange: decoding reads the model's weights as
// they are after SetTheta and WarmStartFrom, never rows from before.
func TestDecodeFollowsThetaChange(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	dict := makeDict(t, 10)
	n := 3
	m := randomModel(rng, dict, n)
	inst := randomInstance(rng, dict, 6, n, false)
	_, before := m.Decode(inst)
	theta := mathx.Clone(m.Theta())
	for i := range theta {
		theta[i] += 0.5
	}
	if err := m.SetTheta(theta); err != nil {
		t.Fatal(err)
	}
	_, after := m.Decode(inst)
	if _, naive := m.naiveDecode(inst); after != naive {
		t.Fatalf("post-SetTheta decode score %v, naive %v (stale rows?)", after, naive)
	}
	if after == before {
		t.Fatal("decode score unchanged after theta shift")
	}
	// WarmStartFrom also mutates theta in place.
	m2 := randomModel(rng, dict, n)
	_, _ = m2.Decode(inst)
	m2.WarmStartFrom(m)
	if _, naive := m2.naiveDecode(inst); func() float64 { _, s := m2.Decode(inst); return s }() != naive {
		t.Fatal("stale decode after WarmStartFrom")
	}
}

// TestDecodeSteadyStateAllocs pins the zero-allocation property: after
// warm-up, Decode allocates only the escaping path slice.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(106))
	dict := makeDict(t, 12)
	n := 6
	m := randomModel(rng, dict, n)
	inst := repeatingInstance(rng, dict.Len(), 40, 6, false, n)
	m.Decode(inst) // warm the scratch pool
	allocs := testing.AllocsPerRun(200, func() {
		m.Decode(inst)
	})
	if allocs > 2 {
		t.Errorf("Decode steady state: %.1f allocs/op, want <= 2 (path only)", allocs)
	}
}

// TestLogZSteadyStateAllocs: LogZ has no escaping output at all.
func TestLogZSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(107))
	dict := makeDict(t, 12)
	n := 6
	m := randomModel(rng, dict, n)
	inst := repeatingInstance(rng, dict.Len(), 40, 6, false, n)
	m.LogZ(inst)
	allocs := testing.AllocsPerRun(200, func() {
		m.LogZ(inst)
	})
	if allocs > 1 {
		t.Errorf("LogZ steady state: %.1f allocs/op, want <= 1", allocs)
	}
}

// TestInstanceNLLSteadyStateAllocs: on a warmed scratch and table, the
// training path's NLL and gradient allocate nothing, table reset included.
func TestInstanceNLLSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(109))
	dict := makeDict(t, 12)
	n := 6
	m := randomModel(rng, dict, n)
	inst := repeatingInstance(rng, dict.Len(), 40, 6, true, n)
	grad := make([]float64, m.NumFeatures())
	var s scratch
	var tab shapeTable
	m.instanceNLL(&s, &tab, m.Theta(), inst, grad)
	allocs := testing.AllocsPerRun(200, func() {
		tab.reset()
		m.instanceNLL(&s, &tab, m.Theta(), inst, grad)
	})
	if allocs != 0 {
		t.Errorf("instanceNLL steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestScoreKernelMatchesReference: stateScores and transScores, through
// addTo, are the same bits as the plain loops for every label-space size
// from 2 to 13 (so both the unrolled body and every tail length run),
// with and without observation-conditioned transitions.
func TestScoreKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	dict := makeDict(t, 14)
	for n := 2; n <= 13; n++ {
		for _, noTransObs := range []bool{false, true} {
			m := New(dict, Config{NumStates: n, DisableTransObs: noTransObs})
			for i := range m.theta {
				m.theta[i] = rng.NormFloat64()
			}
			label := fmt.Sprintf("n=%d DisableTransObs=%v", n, noTransObs)
			if noTransObs != (m.numTrans == 0) {
				t.Fatalf("%s: %d transition observations", label, m.numTrans)
			}
			for trial := 0; trial < 20; trial++ {
				obs := make([]int, rng.Intn(8))
				for i := range obs {
					obs[i] = rng.Intn(dict.Len())
				}
				got, want := make([]float64, n), make([]float64, n)
				m.stateScores(m.theta, obs, got)
				m.naiveStateScores(m.theta, obs, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s obs %v: state row %v, reference %v", label, obs, got, want)
				}
				got, want = make([]float64, n*n), make([]float64, n*n)
				m.transScores(m.theta, obs, got)
				m.naiveTransScores(m.theta, obs, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s obs %v: transition row %v, reference %v", label, obs, got, want)
				}
			}
		}
	}
}
