package crf

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/leakcheck"
	"repro/internal/mathx"
	"repro/internal/tokenize"
)

// makeDict builds a dictionary over synthetic observation names o0..o{n-1}
// plus the closed-class markers.
func makeDict(t testing.TB, nObs int) *tokenize.Dictionary {
	t.Helper()
	var lines [][]tokenize.Line
	var rec []tokenize.Line
	for i := 0; i < nObs; i++ {
		rec = append(rec, tokenize.Line{Obs: []string{obsName(i)}})
	}
	rec = append(rec, tokenize.Line{Obs: []string{tokenize.MarkNL, tokenize.MarkSEP}})
	lines = append(lines, rec)
	return tokenize.BuildDictionary(lines, 1)
}

func obsName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// randomInstance builds a length-T instance over a dictionary.
func randomInstance(rng *rand.Rand, dict *tokenize.Dictionary, T, nStates int, labeled bool) Instance {
	inst := Instance{Obs: make([][]int, T)}
	for t := 0; t < T; t++ {
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			inst.Obs[t] = append(inst.Obs[t], rng.Intn(dict.Len()))
		}
	}
	if labeled {
		inst.Labels = make([]int, T)
		for t := range inst.Labels {
			inst.Labels[t] = rng.Intn(nStates)
		}
	}
	return inst
}

func randomModel(rng *rand.Rand, dict *tokenize.Dictionary, nStates int) *Model {
	m := New(dict, Config{NumStates: nStates, TransMinCount: 1, L2: 0})
	theta := make([]float64, m.NumFeatures())
	for i := range theta {
		theta[i] = rng.NormFloat64() * 0.5
	}
	if err := m.SetTheta(theta); err != nil {
		panic(err)
	}
	return m
}

// seqScore is the unnormalized log score Σ_t,k θ_k f_k of a label
// sequence, computed the way instanceNLL scores its gold path.
func seqScore(m *Model, inst Instance, y []int) float64 {
	return m.labelScore(m.theta, inst.Obs, y)
}

// logProb is log Pr(y|x) (eq. 2), the negated training NLL of inst
// labeled y.
func logProb(m *Model, inst Instance, y []int) float64 {
	var s scratch
	return -m.instanceNLL(&s, nil, m.theta, Instance{Obs: inst.Obs, Labels: y}, nil)
}

// enumerate all label sequences of length T over n states.
func enumerate(T, n int) [][]int {
	if T == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, tail := range enumerate(T-1, n) {
		for y := 0; y < n; y++ {
			seq := append([]int{y}, tail...)
			out = append(out, seq)
		}
	}
	return out
}

func TestLogZMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dict := makeDict(t, 10)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		T := 1 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		inst := randomInstance(rng, dict, T, n, false)
		var brute float64 = mathx.NegInf
		for _, y := range enumerate(T, n) {
			brute = logSumExp(brute, seqScore(m, inst, y))
		}
		if got := m.LogZ(inst); math.Abs(got-brute) > 1e-8 {
			t.Fatalf("trial %d: LogZ=%v brute=%v (n=%d T=%d)", trial, got, brute, n, T)
		}
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dict := makeDict(t, 10)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		T := 1 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		inst := randomInstance(rng, dict, T, n, false)
		bestScore := mathx.NegInf
		for _, y := range enumerate(T, n) {
			if s := seqScore(m, inst, y); s > bestScore {
				bestScore = s
			}
		}
		path, score := m.Decode(inst)
		if len(path) != T {
			t.Fatalf("trial %d: path length %d, want %d", trial, len(path), T)
		}
		if math.Abs(score-bestScore) > 1e-8 {
			t.Fatalf("trial %d: viterbi score %v, brute force max %v", trial, score, bestScore)
		}
		if s := seqScore(m, inst, path); math.Abs(s-score) > 1e-8 {
			t.Fatalf("trial %d: path rescored to %v, viterbi said %v", trial, s, score)
		}
	}
}

func TestMarginalsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dict := makeDict(t, 12)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		T := 1 + rng.Intn(6)
		m := randomModel(rng, dict, n)
		inst := randomInstance(rng, dict, T, n, false)
		marg := m.Marginals(inst)
		for tt := 0; tt < T; tt++ {
			var sum float64
			for j := 0; j < n; j++ {
				if marg[tt][j] < -1e-12 || marg[tt][j] > 1+1e-9 {
					t.Fatalf("marginal out of range: %v", marg[tt][j])
				}
				sum += marg[tt][j]
			}
			if math.Abs(sum-1) > 1e-8 {
				t.Fatalf("trial %d: marginals at %d sum to %v", trial, tt, sum)
			}
		}
	}
}

func TestEdgeMarginalsConsistentWithNodeMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dict := makeDict(t, 12)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(3)
		T := 2 + rng.Intn(4)
		m := randomModel(rng, dict, n)
		inst := randomInstance(rng, dict, T, n, false)
		node := m.Marginals(inst)
		edge := m.EdgeMarginals(inst)
		for tt := 1; tt < T; tt++ {
			for j := 0; j < n; j++ {
				var sum float64
				for i := 0; i < n; i++ {
					sum += edge[tt][i*n+j]
				}
				if math.Abs(sum-node[tt][j]) > 1e-7 {
					t.Fatalf("trial %d t=%d j=%d: edge row-sum %v != node marginal %v",
						trial, tt, j, sum, node[tt][j])
				}
			}
		}
	}
}

func TestLogProbNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dict := makeDict(t, 8)
	n, T := 3, 3
	m := randomModel(rng, dict, n)
	inst := randomInstance(rng, dict, T, n, false)
	var total float64
	for _, y := range enumerate(T, n) {
		total += math.Exp(logProb(m, inst, y))
	}
	if math.Abs(total-1) > 1e-8 {
		t.Fatalf("posterior sums to %v over all sequences", total)
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dict := makeDict(t, 6)
	n := 3
	m := New(dict, Config{NumStates: n, TransMinCount: 1, L2: 0})
	insts := []Instance{
		randomInstance(rng, dict, 4, n, true),
		randomInstance(rng, dict, 2, n, true),
	}
	theta := make([]float64, m.NumFeatures())
	for i := range theta {
		theta[i] = rng.NormFloat64() * 0.3
	}

	obj := m.newBatchObjective(insts, 1)
	grad := make([]float64, len(theta))
	v0 := obj.Eval(theta, grad)

	const h = 1e-6
	checked := 0
	for i := 0; i < len(theta); i += 1 + rng.Intn(7) {
		tp := mathx.Clone(theta)
		tp[i] += h
		vp := obj.Eval(tp, make([]float64, len(theta)))
		numeric := (vp - v0) / h
		if math.Abs(numeric-grad[i]) > 1e-3*(1+math.Abs(numeric)) {
			t.Fatalf("grad[%d]: analytic %v, numeric %v", i, grad[i], numeric)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only checked %d gradient entries", checked)
	}
}

func TestGradientWithL2MatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dict := makeDict(t, 5)
	n := 2
	m := New(dict, Config{NumStates: n, TransMinCount: 1, L2: 0.7})
	insts := []Instance{randomInstance(rng, dict, 3, n, true)}
	theta := make([]float64, m.NumFeatures())
	for i := range theta {
		theta[i] = rng.NormFloat64() * 0.3
	}
	obj := m.newBatchObjective(insts, 1)
	grad := make([]float64, len(theta))
	v0 := obj.Eval(theta, grad)
	const h = 1e-6
	for i := 0; i < len(theta); i += 3 {
		tp := mathx.Clone(theta)
		tp[i] += h
		vp := obj.Eval(tp, make([]float64, len(theta)))
		numeric := (vp - v0) / h
		if math.Abs(numeric-grad[i]) > 1e-3*(1+math.Abs(numeric)) {
			t.Fatalf("grad[%d] with L2: analytic %v, numeric %v", i, grad[i], numeric)
		}
	}
}

// TestParallelGradientMatchesSerial: the batch objective's value and
// gradient are the same bits for every worker count, over an instance
// count that is not a multiple of gradChunks.
func TestParallelGradientMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dict := makeDict(t, 10)
	n := 4
	m := New(dict, Config{NumStates: n, TransMinCount: 1, L2: 0.5})
	var insts []Instance
	for i := 0; i < 2*gradChunks+5; i++ {
		insts = append(insts, randomInstance(rng, dict, 1+rng.Intn(6), n, true))
	}
	theta := make([]float64, m.NumFeatures())
	for i := range theta {
		theta[i] = rng.NormFloat64() * 0.2
	}
	g1 := make([]float64, len(theta))
	v1 := m.newBatchObjective(insts, 1).Eval(theta, g1)
	for workers := 2; workers <= 4; workers++ {
		g := make([]float64, len(theta))
		if v := m.newBatchObjective(insts, workers).Eval(theta, g); v != v1 {
			t.Fatalf("workers %d: value %v, serial %v", workers, v, v1)
		}
		for i := range g1 {
			if g[i] != g1[i] {
				t.Fatalf("workers %d: grad[%d] %v, serial %v", workers, i, g[i], g1[i])
			}
		}
	}
}

// TestTrainJoinsGoroutines: the batch gradient's fan-out has exited by
// the time Train returns.
func TestTrainJoinsGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dict := makeDict(t, 8)
	m := New(dict, Config{NumStates: 3, TransMinCount: 1, L2: 0.1})
	var insts []Instance
	for i := 0; i < 20; i++ {
		insts = append(insts, randomInstance(rng, dict, 2+rng.Intn(5), 3, true))
	}
	joined := leakcheck.Joined(t)
	if _, err := m.Train(insts, TrainConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	joined()
}

// trainToy builds a tiny separable sequence-labeling task: observation oK
// deterministically indicates label K, with a slight transition pattern.
func trainToy(t *testing.T, method string) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	dict := makeDict(t, 6)
	n := 3
	m := New(dict, Config{NumStates: n, TransMinCount: 1, L2: 0.1})
	var insts []Instance
	for r := 0; r < 40; r++ {
		T := 3 + rng.Intn(4)
		inst := Instance{Obs: make([][]int, T), Labels: make([]int, T)}
		for tt := 0; tt < T; tt++ {
			y := rng.Intn(n)
			inst.Labels[tt] = y
			id, ok := dict.ID(obsName(y))
			if !ok {
				t.Fatal("dictionary missing toy observation")
			}
			inst.Obs[tt] = []int{id, rng.Intn(dict.Len())}
		}
		insts = append(insts, inst)
	}
	if _, err := m.Train(insts, TrainConfig{Method: method}); err != nil {
		t.Fatal(err)
	}
	// The trained model must decode held-out separable data perfectly.
	for r := 0; r < 10; r++ {
		T := 4
		inst := Instance{Obs: make([][]int, T)}
		want := make([]int, T)
		for tt := 0; tt < T; tt++ {
			y := rng.Intn(n)
			want[tt] = y
			id, _ := dict.ID(obsName(y))
			inst.Obs[tt] = []int{id}
		}
		got, _ := m.Decode(inst)
		for tt := range want {
			if got[tt] != want[tt] {
				t.Fatalf("method %s: decode %v, want %v", method, got, want)
			}
		}
	}
	return m
}

func TestTrainLBFGSSeparable(t *testing.T) { trainToy(t, "lbfgs") }
func TestTrainSGDSeparable(t *testing.T)   { trainToy(t, "sgd") }

func TestTrainRejectsBadLabels(t *testing.T) {
	dict := makeDict(t, 3)
	m := New(dict, Config{NumStates: 2})
	bad := Instance{Obs: [][]int{{0}}, Labels: []int{5}}
	if _, err := m.Train([]Instance{bad}, TrainConfig{}); err == nil {
		t.Fatal("expected out-of-range label error")
	}
	short := Instance{Obs: [][]int{{0}, {1}}, Labels: []int{0}}
	if _, err := m.Train([]Instance{short}, TrainConfig{}); err == nil {
		t.Fatal("expected label/position mismatch error")
	}
	if _, err := m.Train(nil, TrainConfig{Method: "nope"}); err == nil {
		t.Fatal("expected unknown method error")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	m := trainToy(t, "lbfgs")
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumStates() != m.NumStates() || m2.NumFeatures() != m.NumFeatures() {
		t.Fatalf("shape mismatch after round trip: %d/%d vs %d/%d",
			m2.NumStates(), m2.NumFeatures(), m.NumStates(), m.NumFeatures())
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(rng, m.Dict(), 5, m.NumStates(), false)
		p1, s1 := m.Decode(inst)
		p2, s2 := m2.Decode(inst)
		if math.Abs(s1-s2) > 1e-12 {
			t.Fatalf("scores differ after round trip: %v vs %v", s1, s2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("paths differ after round trip")
			}
		}
	}
}

func TestEmptyInstance(t *testing.T) {
	dict := makeDict(t, 3)
	m := New(dict, Config{NumStates: 2})
	path, score := m.Decode(Instance{})
	if len(path) != 0 || score != 0 {
		t.Errorf("empty decode: path=%v score=%v", path, score)
	}
	if z := m.LogZ(Instance{}); z != 0 {
		t.Errorf("empty LogZ = %v", z)
	}
	if marg := m.Marginals(Instance{}); marg != nil {
		t.Errorf("empty marginals = %v", marg)
	}
}

func TestDisableTransObs(t *testing.T) {
	dict := makeDict(t, 10)
	full := New(dict, Config{NumStates: 3, TransMinCount: 1})
	bare := New(dict, Config{NumStates: 3, DisableTransObs: true})
	if bare.NumTransObs() != 0 {
		t.Errorf("DisableTransObs left %d transition observations", bare.NumTransObs())
	}
	if full.NumTransObs() == 0 {
		t.Error("full model has no transition observations")
	}
	if bare.NumFeatures() >= full.NumFeatures() {
		t.Errorf("bare model should have fewer features: %d vs %d",
			bare.NumFeatures(), full.NumFeatures())
	}
}

func TestTransMinCountGatesFeatures(t *testing.T) {
	// Build a dictionary with one frequent and one rare observation.
	recs := [][]tokenize.Line{{
		{Obs: []string{"frequent", "frequent", "frequent", "rare"}},
	}}
	dict := tokenize.BuildDictionary(recs, 1)
	m := New(dict, Config{NumStates: 2, TransMinCount: 2})
	freqID, _ := dict.ID("frequent")
	rareID, _ := dict.ID("rare")
	if m.transRank[freqID] < 0 {
		t.Error("frequent observation should carry transition features")
	}
	if m.transRank[rareID] >= 0 {
		t.Error("rare observation should not carry transition features")
	}
}

func TestTopStateFeaturesOrdered(t *testing.T) {
	m := trainToy(t, "lbfgs")
	top := m.TopStateFeatures(0, 5)
	if len(top) != 5 {
		t.Fatalf("got %d features, want 5", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Fatalf("weights not sorted: %v", top)
		}
	}
	// The defining observation of state 0 should rank first.
	if top[0].Obs != obsName(0) {
		t.Errorf("top feature for state 0 is %q, want %q", top[0].Obs, obsName(0))
	}
}

func TestViterbiPathIsModePropertyBased(t *testing.T) {
	dict := makeDict(t, 8)
	rng := rand.New(rand.NewSource(17))
	f := func(seedRaw int64) bool {
		srng := rand.New(rand.NewSource(seedRaw))
		n := 2 + srng.Intn(2)
		T := 1 + srng.Intn(3)
		m := randomModel(srng, dict, n)
		inst := randomInstance(srng, dict, T, n, false)
		path, _ := m.Decode(inst)
		pathLP := logProb(m, inst, path)
		// No random sequence may beat the Viterbi path.
		for k := 0; k < 10; k++ {
			y := make([]int, T)
			for i := range y {
				y[i] = rng.Intn(n)
			}
			if logProb(m, inst, y) > pathLP+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSetThetaLengthMismatch(t *testing.T) {
	dict := makeDict(t, 3)
	m := New(dict, Config{NumStates: 2})
	if err := m.SetTheta(make([]float64, 3)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestLogProbConsistentWithScoreAndZ(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	dict := makeDict(t, 8)
	m := randomModel(rng, dict, 3)
	inst := randomInstance(rng, dict, 4, 3, false)
	y := []int{0, 1, 2, 1}
	lp := logProb(m, inst, y)
	want := seqScore(m, inst, y) - m.LogZ(inst)
	if math.Abs(lp-want) > 1e-9 {
		t.Fatalf("LogProb %v, score-logZ %v", lp, want)
	}
	if lp > 1e-9 {
		t.Fatalf("log probability %v > 0", lp)
	}
}

func TestTransMinCountZeroMeansAll(t *testing.T) {
	dict := makeDict(t, 10)
	m := New(dict, Config{NumStates: 2, TransMinCount: 0})
	if m.NumTransObs() != dict.Len() {
		t.Errorf("TransMinCount 0 should gate nothing: %d of %d", m.NumTransObs(), dict.Len())
	}
}

func TestIntrospectionSurvivesSerialization(t *testing.T) {
	m := trainToy(t, "lbfgs")
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := m.TopStateFeatures(1, 3)
	b := m2.TopStateFeatures(1, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("introspection differs after round trip: %v vs %v", a, b)
		}
	}
}

func TestTrainNoInstances(t *testing.T) {
	dict := makeDict(t, 3)
	m := New(dict, Config{NumStates: 2, L2: 1})
	res, err := m.Train(nil, TrainConfig{})
	if err != nil {
		t.Fatalf("training on zero instances should be a no-op: %v", err)
	}
	if !res.Converged {
		t.Error("empty objective should converge immediately")
	}
	for _, th := range m.Theta() {
		if th != 0 {
			t.Fatal("weights moved with no data")
		}
	}
}

// LogZ returns the log of the normalization factor Z(x) (eq. 3/10),
// computed by the kernel's forward recursion.
func (m *Model) LogZ(inst Instance) float64 {
	if len(inst.Obs) == 0 {
		return 0
	}
	s := getScratch()
	defer putScratch(s)
	m.fillLattice(s, inst)
	s.fillPsi()
	return s.forward()
}

// EdgeMarginals returns Pr(y_{t-1}=i, y_t=j | x) for t in [1, T), as a
// slice indexed by t with n×n matrices flattened row-major (eq. 12).
func (m *Model) EdgeMarginals(inst Instance) [][]float64 {
	T := len(inst.Obs)
	if T == 0 {
		return nil
	}
	s, _ := m.forwardBackward(inst)
	defer putScratch(s)
	nn := s.lat.n * s.lat.n
	out := make([][]float64, T)
	backing := make([]float64, (T-1)*nn)
	for t := 1; t < T; t++ {
		out[t] = backing[(t-1)*nn : t*nn]
		s.edgeMarginals(t, out[t])
	}
	return out
}

// NumStates reports the label-space size.
func (m *Model) NumStates() int { return m.cfg.NumStates }

// NumTransObs reports how many observations carry transition features.
func (m *Model) NumTransObs() int { return m.numTrans }
