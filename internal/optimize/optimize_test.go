package optimize

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mathx"
)

// quadratic builds f(x) = 0.5 Σ c_i (x_i - m_i)^2, whose minimum is m.
func quadratic(c, m []float64) Objective {
	return FuncObjective{
		N: len(c),
		F: func(theta, grad []float64) float64 {
			var v float64
			for i := range theta {
				d := theta[i] - m[i]
				v += 0.5 * c[i] * d * d
				grad[i] = c[i] * d
			}
			return v
		},
	}
}

// rosenbrock is the classic banana-valley test function, minimum at (1,1).
var rosenbrock = FuncObjective{
	N: 2,
	F: func(x, g []float64) float64 {
		a, b := x[0], x[1]
		g[0] = -2*(1-a) - 400*a*(b-a*a)
		g[1] = 200 * (b - a*a)
		return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	},
}

func TestLBFGSQuadratic(t *testing.T) {
	c := []float64{1, 10, 0.1, 5}
	m := []float64{3, -2, 7, 0.5}
	res, err := LBFGS(quadratic(c, m), make([]float64, 4), DefaultLBFGSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge: %+v", res)
	}
	for i := range m {
		if math.Abs(res.X[i]-m[i]) > 1e-3 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], m[i])
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	cfg := DefaultLBFGSConfig()
	cfg.MaxIterations = 500
	cfg.GradTol = 1e-6
	res, err := LBFGS(rosenbrock, []float64{-1.2, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-2 || math.Abs(res.X[1]-1) > 1e-2 {
		t.Errorf("Rosenbrock minimum not found: %v (value %v)", res.X, res.Value)
	}
}

func TestLBFGSDimensionMismatch(t *testing.T) {
	_, err := LBFGS(rosenbrock, make([]float64, 3), DefaultLBFGSConfig())
	if err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestLBFGSAlreadyConverged(t *testing.T) {
	c := []float64{1, 1}
	m := []float64{0, 0}
	res, err := LBFGS(quadratic(c, m), []float64{0, 0}, DefaultLBFGSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("starting at the optimum should converge immediately: %+v", res)
	}
}

func TestLBFGSCallbackStops(t *testing.T) {
	cfg := DefaultLBFGSConfig()
	calls := 0
	cfg.Callback = func(iter int, v, g float64) bool {
		calls++
		return false
	}
	res, err := LBFGS(quadratic([]float64{1, 1}, []float64{5, 5}), make([]float64, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("callback called %d times, want 1", calls)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

func TestLBFGSMonotoneDecrease(t *testing.T) {
	cfg := DefaultLBFGSConfig()
	var values []float64
	cfg.Callback = func(iter int, v, g float64) bool {
		values = append(values, v)
		return true
	}
	if _, err := LBFGS(rosenbrock, []float64{-1.2, 1}, cfg); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(values); i++ {
		if values[i] > values[i-1]+1e-12 {
			t.Fatalf("objective increased at iter %d: %v -> %v", i, values[i-1], values[i])
		}
	}
}

func TestLBFGSBeatsGradientDescent(t *testing.T) {
	// On the ill-conditioned Rosenbrock function, L-BFGS with a fixed
	// iteration budget should reach a much lower value than 30 steps of
	// backtracking steepest descent.
	x := []float64{-1.2, 1}
	grad := make([]float64, 2)
	xNext := make([]float64, 2)
	gradNext := make([]float64, 2)
	gdValue := rosenbrock.Eval(x, grad)
	for iter := 0; iter < 30; iter++ {
		step := 1e-3
		improved := false
		for ls := 0; ls < 30; ls++ {
			for i := range x {
				xNext[i] = x[i] - step*grad[i]
			}
			if v := rosenbrock.Eval(xNext, gradNext); v < gdValue {
				copy(x, xNext)
				copy(grad, gradNext)
				gdValue = v
				improved = true
				break
			}
			step *= 0.5
		}
		if !improved {
			break
		}
	}
	cfg := DefaultLBFGSConfig()
	cfg.MaxIterations = 30
	budgetLB, err := LBFGS(rosenbrock, []float64{-1.2, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if budgetLB.Value >= gdValue {
		t.Errorf("L-BFGS (%v) should beat gradient descent (%v) at equal iterations",
			budgetLB.Value, gdValue)
	}
}

// sumQuadratic is a stochastic objective: mean of per-example quadratics.
type sumQuadratic struct {
	centers [][]float64
}

func (s sumQuadratic) Dim() int         { return len(s.centers[0]) }
func (s sumQuadratic) NumExamples() int { return len(s.centers) }
func (s sumQuadratic) EvalExample(i int, theta, grad []float64) float64 {
	var v float64
	for k := range theta {
		d := theta[k] - s.centers[i][k]
		v += 0.5 * d * d
		grad[k] += d
	}
	return v
}

func TestSGDFindsMeanOfCenters(t *testing.T) {
	obj := sumQuadratic{centers: [][]float64{{1, 5}, {3, 7}, {2, 6}}}
	cfg := DefaultSGDConfig()
	cfg.Epochs = 200
	cfg.Eta0 = 0.2
	cfg.Decay = 0.01
	res, err := SGD(obj, make([]float64, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The minimizer of the sum is the mean of the centers: (2, 6).
	if math.Abs(res.X[0]-2) > 0.1 || math.Abs(res.X[1]-6) > 0.1 {
		t.Errorf("SGD result %v, want near (2, 6)", res.X)
	}
}

func TestSGDDeterministicWithSeed(t *testing.T) {
	obj := sumQuadratic{centers: [][]float64{{1}, {2}, {3}, {4}}}
	cfg := DefaultSGDConfig()
	cfg.Epochs = 5
	a, err := SGD(obj, []float64{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SGD(obj, []float64{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.X[0] != b.X[0] {
		t.Errorf("same seed produced different results: %v vs %v", a.X[0], b.X[0])
	}
}

func TestSGDDimensionMismatch(t *testing.T) {
	obj := sumQuadratic{centers: [][]float64{{1, 2}}}
	if _, err := SGD(obj, []float64{0}, DefaultSGDConfig()); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSGDCallbackEarlyStop(t *testing.T) {
	obj := sumQuadratic{centers: [][]float64{{1}, {2}}}
	cfg := DefaultSGDConfig()
	cfg.Epochs = 100
	epochs := 0
	cfg.Callback = func(e int, loss float64) bool {
		epochs = e
		return e < 3
	}
	if _, err := SGD(obj, []float64{0}, cfg); err != nil {
		t.Fatal(err)
	}
	if epochs != 3 {
		t.Errorf("stopped after %d epochs, want 3", epochs)
	}
}

func TestLBFGSHighDimensional(t *testing.T) {
	// A 500-dimensional quadratic with varied curvature converges fast.
	n := 500
	c := make([]float64, n)
	m := make([]float64, n)
	for i := range c {
		c[i] = 0.5 + float64(i%17)
		m[i] = float64(i%5) - 2
	}
	res, err := LBFGS(quadratic(c, m), make([]float64, n), DefaultLBFGSConfig())
	if err != nil {
		t.Fatal(err)
	}
	var dist float64
	for i := range m {
		dist += (res.X[i] - m[i]) * (res.X[i] - m[i])
	}
	if math.Sqrt(dist) > 1e-2 {
		t.Errorf("high-dimensional quadratic: distance to optimum %v", math.Sqrt(dist))
	}
	if res.GradNorm > 1e-3 {
		t.Errorf("gradient norm %v too large", res.GradNorm)
	}
	_ = mathx.NegInf
}

// regQuadratic folds an explicit per-example L2 term into EvalExample, the
// pre-WeightDecay formulation, as the reference for the fused decay path.
type regQuadratic struct {
	sumQuadratic
	lam float64
}

func (r regQuadratic) EvalExample(i int, theta, grad []float64) float64 {
	v := r.sumQuadratic.EvalExample(i, theta, grad)
	var reg float64
	for k, th := range theta {
		reg += th * th
		grad[k] += r.lam * th
	}
	return v + 0.5*r.lam*reg
}

func TestSGDWeightDecayMatchesExplicitRegularizer(t *testing.T) {
	base := sumQuadratic{centers: [][]float64{{1, 5}, {3, 7}, {2, 6}, {0, 4}}}
	const lam = 0.05
	cfg := DefaultSGDConfig()
	cfg.Epochs = 40
	explicit, err := SGD(regQuadratic{base, lam}, []float64{0.5, -0.5}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fused := cfg
	fused.WeightDecay = lam
	decayed, err := SGD(base, []float64{0.5, -0.5}, fused)
	if err != nil {
		t.Fatal(err)
	}
	// The update θ ← (1−ηλ)θ − ηg is algebraically θ ← θ − η(g + λθ), so
	// the iterates must agree to rounding.
	for k := range explicit.X {
		if math.Abs(explicit.X[k]-decayed.X[k]) > 1e-9 {
			t.Fatalf("x[%d]: explicit %v, fused decay %v", k, explicit.X[k], decayed.X[k])
		}
	}
	// Reported losses differ only in where within the epoch the regularizer
	// is sampled; they must still agree closely once converged.
	if diff := math.Abs(explicit.Value - decayed.Value); diff > 1e-2*(1+math.Abs(explicit.Value)) {
		t.Fatalf("loss mismatch: explicit %v, fused decay %v", explicit.Value, decayed.Value)
	}
}

// refTrace counts the reference run's rare branches, so a test can show
// that it reached them.
type refTrace struct {
	rejected, restarts int
}

// referenceLBFGS is the unfused L-BFGS loop LBFGS replaced, kept as the
// bit-exactness reference: textbook two-loop passes (one Dot or AXPY
// each), s·y and y·y recomputed per iteration, two fresh n-vectors per
// correction pair, and copies instead of swaps.
func referenceLBFGS(obj Objective, x0 []float64, cfg LBFGSConfig, tr *refTrace) Result {
	n := obj.Dim()
	if cfg.History <= 0 {
		cfg.History = 7
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	if cfg.MaxLineSearch <= 0 {
		cfg.MaxLineSearch = 40
	}

	x := mathx.Clone(x0)
	grad := make([]float64, n)
	value := obj.Eval(x, grad)
	evals := 1

	sHist := make([][]float64, 0, cfg.History)
	yHist := make([][]float64, 0, cfg.History)
	rhoHist := make([]float64, 0, cfg.History)

	dir := make([]float64, n)
	alpha := make([]float64, cfg.History)
	xNext := make([]float64, n)
	gradNext := make([]float64, n)

	res := Result{X: x, Value: value, GradNorm: mathx.MaxAbs(grad)}
	if res.GradNorm <= cfg.GradTol {
		res.Converged = true
		res.Evals = evals
		return res
	}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		dirDeriv := referenceDirection(dir, grad, sHist, yHist, rhoHist, alpha)
		if dirDeriv >= 0 {
			tr.restarts++
			copy(dir, grad)
			scale(-1, dir)
			dirDeriv = dot(grad, dir)
			sHist, yHist, rhoHist = sHist[:0], yHist[:0], rhoHist[:0]
			if dirDeriv == 0 {
				res.Converged = true
				break
			}
		}

		step := 1.0
		if iter == 0 {
			if g := mathx.Norm2(grad); g > 0 {
				step = math.Min(1.0, 1.0/g)
			}
		}
		const c1 = 1e-4
		var valNext float64
		accepted := false
		for ls := 0; ls < cfg.MaxLineSearch; ls++ {
			copy(xNext, x)
			mathx.AXPY(step, dir, xNext)
			valNext = obj.Eval(xNext, gradNext)
			evals++
			if valNext <= value+c1*step*dirDeriv && !math.IsNaN(valNext) && !math.IsInf(valNext, 0) {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			break
		}

		s := make([]float64, n)
		y := make([]float64, n)
		for i := range s {
			s[i] = xNext[i] - x[i]
			y[i] = gradNext[i] - grad[i]
		}
		if sy := dot(s, y); sy > 1e-10 {
			if len(sHist) == cfg.History {
				sHist = append(sHist[1:], s)
				yHist = append(yHist[1:], y)
				rhoHist = append(rhoHist[1:], 1/sy)
			} else {
				sHist = append(sHist, s)
				yHist = append(yHist, y)
				rhoHist = append(rhoHist, 1/sy)
			}
		} else {
			tr.rejected++
		}

		prevValue := value
		copy(x, xNext)
		copy(grad, gradNext)
		value = valNext

		res.Iterations = iter + 1
		res.Value = value
		res.GradNorm = mathx.MaxAbs(grad)

		if cfg.Callback != nil && !cfg.Callback(iter+1, value, res.GradNorm) {
			break
		}
		if res.GradNorm <= cfg.GradTol {
			res.Converged = true
			break
		}
		if rel := math.Abs(prevValue-value) / math.Max(1, math.Abs(prevValue)); rel <= cfg.FuncTol {
			res.Converged = true
			break
		}
	}

	res.X = x
	res.Evals = evals
	return res
}

// dot and scale are the plain loops the reference recursion runs.
func dot(a, b []float64) float64 {
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

func scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// referenceDirection is the unfused two-loop recursion: it writes
// dir = −H·grad over the pairs (oldest first) and returns grad·dir.
func referenceDirection(dir, grad []float64, sHist, yHist [][]float64, rhoHist, alpha []float64) float64 {
	copy(dir, grad)
	k := len(sHist)
	for i := k - 1; i >= 0; i-- {
		alpha[i] = rhoHist[i] * dot(sHist[i], dir)
		mathx.AXPY(-alpha[i], yHist[i], dir)
	}
	if k > 0 {
		sy := dot(sHist[k-1], yHist[k-1])
		yy := dot(yHist[k-1], yHist[k-1])
		if yy > 0 {
			scale(sy/yy, dir)
		}
	}
	for i := 0; i < k; i++ {
		beta := rhoHist[i] * dot(yHist[i], dir)
		mathx.AXPY(alpha[i]-beta, sHist[i], dir)
	}
	scale(-1, dir)
	return dot(grad, dir)
}

// TestTwoLoopMatchesReference: for every history length, the fused
// two-loop writes the same direction bits as the unfused recursion and
// returns the same grad·dir, which the line search reads but a whole
// L-BFGS run rarely exposes.
func TestTwoLoopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 257
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
		}
		return v
	}
	for k := 0; k <= 7; k++ {
		var pairs []corrPair
		var sHist, yHist [][]float64
		var rhoHist []float64
		for len(pairs) < k {
			s, y := vec(), vec()
			sy, yy := dot(s, y), dot(y, y)
			if sy <= 1e-10 {
				continue
			}
			pairs = append(pairs, corrPair{s: s, y: y, rho: 1 / sy, sy: sy, yy: yy})
			sHist, yHist, rhoHist = append(sHist, s), append(yHist, y), append(rhoHist, 1/sy)
		}
		grad := vec()
		want, got := make([]float64, n), make([]float64, n)
		wantDD := referenceDirection(want, grad, sHist, yHist, rhoHist, make([]float64, 7))
		gotDD := twoLoop(got, grad, pairs, make([]float64, 7))
		if gotDD != wantDD {
			t.Fatalf("k=%d: grad·dir %v, reference %v", k, gotDD, wantDD)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: direction differs from the reference", k)
		}
	}
}

// huber is Σ huber(x_i − m_i) with unit threshold: its gradient is
// constant (±1) wherever every coordinate is more than 1 from its
// minimum, so steps there give y = 0 and the pair fails the curvature
// check.
func huber(m []float64) Objective {
	return FuncObjective{
		N: len(m),
		F: func(theta, grad []float64) float64 {
			var v float64
			for i := range theta {
				d := theta[i] - m[i]
				if a := math.Abs(d); a <= 1 {
					v += 0.5 * d * d
					grad[i] = d
				} else {
					v += a - 0.5
					grad[i] = math.Copysign(1, d)
				}
			}
			return v
		},
	}
}

// chainCRF is a linear-chain CRF batch objective at toy size: the
// L2-regularized negative log-likelihood of labelled sequences under
// (observation, label) and (label, label) weights, with logZ and the
// expected feature counts taken by enumerating every label sequence.
func chainCRF(seed int64) Objective {
	const nObs, n, l2 = 5, 3, 0.1
	rng := rand.New(rand.NewSource(seed))
	type seq struct{ obs, labels []int }
	data := make([]seq, 12)
	for r := range data {
		T := 2 + rng.Intn(3)
		d := seq{make([]int, T), make([]int, T)}
		for t := range d.obs {
			d.labels[t] = rng.Intn(n)
			d.obs[t] = (d.labels[t] + rng.Intn(3)) % nObs
		}
		data[r] = d
	}
	// features adds w times the feature counts of labels y into grad (when
	// non-nil) and returns the sequence's score.
	features := func(theta []float64, obs, y []int, w float64, grad []float64) float64 {
		var score float64
		for t := range y {
			k := obs[t]*n + y[t]
			score += theta[k]
			if grad != nil {
				grad[k] += w
			}
			if t >= 1 {
				k = nObs*n + y[t-1]*n + y[t]
				score += theta[k]
				if grad != nil {
					grad[k] += w
				}
			}
		}
		return score
	}
	return FuncObjective{
		N: nObs*n + n*n,
		F: func(theta, grad []float64) float64 {
			mathx.Fill(grad, 0)
			var v float64
			for _, d := range data {
				T := len(d.obs)
				var paths [][]int
				for code := 0; code < int(math.Pow(n, float64(T))); code++ {
					y := make([]int, T)
					for t, c := 0, code; t < T; t, c = t+1, c/n {
						y[t] = c % n
					}
					paths = append(paths, y)
				}
				scores := make([]float64, len(paths))
				logZ := mathx.NegInf
				for i, y := range paths {
					scores[i] = features(theta, d.obs, y, 0, nil)
					hi := math.Max(logZ, scores[i])
					logZ = hi + math.Log(math.Exp(logZ-hi)+math.Exp(scores[i]-hi))
				}
				for i, y := range paths {
					features(theta, d.obs, y, math.Exp(scores[i]-logZ), grad)
				}
				v += logZ - features(theta, d.obs, d.labels, -1, grad)
			}
			for i, th := range theta {
				v += 0.5 * l2 * th * th
				grad[i] += l2 * th
			}
			return v
		},
	}
}

// scripted returns the values and gradients of its script in evaluation
// order, whatever the point: a way to steer L-BFGS into branches a
// smooth objective reaches only through rounding.
type scripted struct {
	values []float64
	grads  [][]float64
	next   int
}

func (s *scripted) Dim() int { return len(s.grads[0]) }

func (s *scripted) Eval(theta, grad []float64) float64 {
	i := min(s.next, len(s.values)-1)
	s.next++
	copy(grad, s.grads[i])
	return s.values[i]
}

// restartScript drives L-BFGS through a rejected pair and then a
// steepest-descent restart. Iteration 0 steps along e₀, where the
// gradient's e₀ part does not change: s·y = 0, so the pair is rejected.
// Iteration 1 keeps the pair s = (1, −A, −A, 0), y = (1, 0, −2A, 0),
// whose y·y overflows, so γ = s·y / y·y = 0. At iteration 2 the gradient
// (0, A, −A, 0) is orthogonal to s, so the two-loop direction is zero and
// grad·dir = 0, which forces the restart.
func restartScript() *scripted {
	const a = 7e153 // 2a² is finite, 4a² is not
	return &scripted{
		values: []float64{0, -1, -1e305, -2e305},
		grads: [][]float64{
			{-1, 0, 0, 0},
			{-1, a, a, 0},
			{0, a, -a, 0},
			{0, 0, 0, 0},
		},
	}
}

// iterate is one Callback observation.
type iterate struct {
	iter        int
	value, norm float64
}

// TestLBFGSMatchesReference: the fused LBFGS returns the same bits as the
// unfused reference loop (X, Value, GradNorm, Iterations, Evals,
// Converged, and every iterate the Callback sees), over objectives that
// fill and rotate the history, reject pairs, restart, and stop from the
// Callback.
func TestLBFGSMatchesReference(t *testing.T) {
	big := make([]float64, 500)
	bigM := make([]float64, 500)
	for i := range big {
		big[i] = 0.5 + float64(i%17)
		bigM[i] = float64(i%5) - 2
	}
	rosen := DefaultLBFGSConfig()
	rosen.MaxIterations = 500
	rosen.GradTol = 1e-6
	short := DefaultLBFGSConfig()
	short.History = 3
	stop := DefaultLBFGSConfig()
	stop.Callback = func(iter int, _, _ float64) bool { return iter < 5 }
	exact := DefaultLBFGSConfig()
	exact.GradTol, exact.FuncTol = 0, 0

	cases := []struct {
		name     string
		obj      func() Objective
		x0       []float64
		cfg      LBFGSConfig
		rejected bool // the reference must reject a pair
		restart  bool // the reference must restart
	}{
		{"quadratic", func() Objective { return quadratic([]float64{1, 10, 0.1, 5}, []float64{3, -2, 7, 0.5}) }, make([]float64, 4), DefaultLBFGSConfig(), false, false},
		{"quadratic500", func() Objective { return quadratic(big, bigM) }, make([]float64, 500), DefaultLBFGSConfig(), false, false},
		{"rosenbrock", func() Objective { return rosenbrock }, []float64{-1.2, 1}, rosen, false, false},
		{"rosenbrock-history3", func() Objective { return rosenbrock }, []float64{-1.2, 1}, short, false, false},
		{"rosenbrock-callback-stop", func() Objective { return rosenbrock }, []float64{-1.2, 1}, stop, false, false},
		{"huber", func() Objective { return huber([]float64{40, -30, 25}) }, []float64{0, 0, 0}, DefaultLBFGSConfig(), true, false},
		{"crf", func() Objective { return chainCRF(3) }, make([]float64, 24), DefaultLBFGSConfig(), false, false},
		{"crf-exact-tolerances", func() Objective { return chainCRF(4) }, make([]float64, 24), exact, false, false},
		{"restart", func() Objective { return restartScript() }, make([]float64, 4), DefaultLBFGSConfig(), true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantIters, gotIters []iterate
			refCfg, cfg := tc.cfg, tc.cfg
			refCfg.Callback = func(iter int, v, g float64) bool {
				wantIters = append(wantIters, iterate{iter, v, g})
				return tc.cfg.Callback == nil || tc.cfg.Callback(iter, v, g)
			}
			cfg.Callback = func(iter int, v, g float64) bool {
				gotIters = append(gotIters, iterate{iter, v, g})
				return tc.cfg.Callback == nil || tc.cfg.Callback(iter, v, g)
			}
			var tr refTrace
			want := referenceLBFGS(tc.obj(), tc.x0, refCfg, &tr)
			got, err := LBFGS(tc.obj(), tc.x0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.rejected && tr.rejected == 0 {
				t.Errorf("reference rejected no pair")
			}
			if tc.restart && tr.restarts == 0 {
				t.Errorf("reference never restarted")
			}
			if got.Value != want.Value || got.GradNorm != want.GradNorm || got.Iterations != want.Iterations ||
				got.Evals != want.Evals || got.Converged != want.Converged {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
			if !slices.Equal(got.X, want.X) {
				t.Fatalf("X = %v, reference %v", got.X, want.X)
			}
			if !slices.Equal(gotIters, wantIters) {
				t.Fatalf("iterates %v, reference %v", gotIters, wantIters)
			}
			t.Logf("%d iterations, %d evals, %d rejected pairs, %d restarts", want.Iterations, want.Evals, tr.rejected, tr.restarts)
		})
	}
}

// TestLBFGSReusesPairBuffers: once the history is full, an iteration
// allocates nothing; the evicted pair's buffers take the next pair.
func TestLBFGSReusesPairBuffers(t *testing.T) {
	n := 200
	c, m := make([]float64, n), make([]float64, n)
	for i := range c {
		c[i] = 1 + float64(i%13)
		m[i] = float64(i % 7)
	}
	run := func(iters int) float64 {
		cfg := DefaultLBFGSConfig()
		cfg.MaxIterations = iters
		cfg.GradTol, cfg.FuncTol = 0, 0
		return testing.AllocsPerRun(5, func() {
			if _, err := LBFGS(quadratic(c, m), make([]float64, n), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(10), run(30)
	if long != short {
		t.Fatalf("30 iterations allocate %v times, 10 iterations %v: iterations past a full history allocate", long, short)
	}
}
