// Package optimize implements the numerical optimizers used to train the
// conditional random fields in this repository: a limited-memory BFGS
// (L-BFGS) with a backtracking Armijo line search, and stochastic gradient
// descent with step decay.
//
// The paper ("Who is .com?", IMC 2015, §3.1 and §3.3) estimates CRF
// parameters by maximizing a convex conditional log-likelihood with L-BFGS,
// and mentions a parallel implementation; our Objective interface lets the
// caller evaluate batch gradients across goroutines (see internal/crf).
package optimize

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Objective is a differentiable function to be minimized.
//
// Eval must return the function value at theta and write the gradient into
// grad (which has the same length as theta). Implementations may evaluate
// the sum over training examples in parallel; Eval itself is called
// sequentially by the optimizers.
type Objective interface {
	Eval(theta []float64, grad []float64) float64
	Dim() int
}

// FuncObjective adapts a plain function to the Objective interface.
type FuncObjective struct {
	N int
	F func(theta, grad []float64) float64
}

// Eval implements Objective.
func (f FuncObjective) Eval(theta, grad []float64) float64 { return f.F(theta, grad) }

// Dim implements Objective.
func (f FuncObjective) Dim() int { return f.N }

// Result reports how an optimization run ended.
type Result struct {
	X          []float64 // final parameters
	Value      float64   // final objective value
	GradNorm   float64   // max-abs of the final gradient
	Iterations int       // iterations actually performed
	Converged  bool      // true if the gradient tolerance was met
	Evals      int       // number of objective evaluations
}

// LBFGSConfig controls the L-BFGS run. The zero value is not usable; use
// DefaultLBFGSConfig.
type LBFGSConfig struct {
	// History is the number of (s, y) correction pairs retained (m in the
	// literature). Typical values are 3–20.
	History int
	// MaxIterations bounds the outer iteration count.
	MaxIterations int
	// GradTol stops the run once the max-abs gradient entry drops below it.
	GradTol float64
	// FuncTol stops the run when the relative objective improvement between
	// successive iterations falls below it.
	FuncTol float64
	// MaxLineSearch bounds backtracking steps per iteration.
	MaxLineSearch int
	// Callback, when non-nil, observes each accepted iterate. Returning
	// false stops the run early (reported as converged=false).
	Callback func(iter int, value float64, gradNorm float64) bool
}

// DefaultLBFGSConfig returns the configuration used throughout this
// repository: 7 correction pairs, tight-enough tolerances for the parsing
// experiments, and a generous iteration budget.
func DefaultLBFGSConfig() LBFGSConfig {
	return LBFGSConfig{
		History:       7,
		MaxIterations: 200,
		GradTol:       1e-4,
		FuncTol:       1e-9,
		MaxLineSearch: 40,
	}
}

// ErrDimension reports a mismatch between the objective dimension and the
// starting point.
var ErrDimension = errors.New("optimize: dimension mismatch")

// LBFGS minimizes obj starting from x0 using the two-loop recursion of
// Nocedal & Wright (Numerical Optimization, 2nd ed., Alg. 7.4-7.5) with a
// backtracking line search enforcing the Armijo (sufficient decrease)
// condition and a curvature check before accepting correction pairs.
//
// Each pass over the n-vectors does the work of several textbook steps:
// every AXPY of the two-loop recursion is fused with the dot product that
// follows it. Every sum still runs over the indices in ascending order
// with one accumulator, so the iterates are the same bits as the unfused
// recursion's.
func LBFGS(obj Objective, x0 []float64, cfg LBFGSConfig) (Result, error) {
	n := obj.Dim()
	if len(x0) != n {
		return Result{}, fmt.Errorf("%w: objective dim %d, x0 len %d", ErrDimension, n, len(x0))
	}
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

	// pairs[:k] are the retained correction pairs, oldest first. The
	// next candidate pair is written into pairs[k], whose buffers were
	// left there by a pair evicted or dropped earlier, if any.
	pairs := make([]corrPair, cfg.History+1)
	k := 0

	dir := make([]float64, n)
	alpha := make([]float64, cfg.History)
	xNext := make([]float64, n)
	gradNext := make([]float64, n)

	res := Result{X: x, Value: value, GradNorm: mathx.MaxAbs(grad)}
	if res.GradNorm <= cfg.GradTol {
		res.Converged = true
		res.Evals = evals
		return res, nil
	}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		dirDeriv := twoLoop(dir, grad, pairs[:k], alpha)
		if dirDeriv >= 0 {
			// Not a descent direction (numerical trouble); restart with
			// steepest descent.
			dirDeriv = twoLoop(dir, grad, nil, nil)
			k = 0
			if dirDeriv == 0 {
				res.Converged = true
				break
			}
		}

		// Backtracking Armijo line search.
		step := 1.0
		if iter == 0 {
			// First step: scale so the initial move is modest.
			if g := mathx.Norm2(grad); g > 0 {
				step = math.Min(1.0, 1.0/g)
			}
		}
		const c1 = 1e-4
		var valNext float64
		accepted := false
		for ls := 0; ls < cfg.MaxLineSearch; ls++ {
			xn, d := xNext[:n], dir[:n]
			for i, xi := range x {
				xn[i] = xi + step*d[i]
			}
			valNext = obj.Eval(xNext, gradNext)
			evals++
			if valNext <= value+c1*step*dirDeriv && !math.IsNaN(valNext) && !math.IsInf(valNext, 0) {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			// Line search failed; the current point is the best we can do.
			break
		}

		// Correction pair s = xNext - x, y = gradNext - grad, kept only
		// if it passes the curvature check.
		p := &pairs[k]
		if p.s == nil {
			p.s, p.y = make([]float64, n), make([]float64, n)
		}
		var gradNorm float64
		p.sy, p.yy = 0, 0
		ps, py, xn, gn, g := p.s[:n], p.y[:n], xNext[:n], gradNext[:n], grad[:n]
		for i, xi := range x {
			si, yi := xn[i]-xi, gn[i]-g[i]
			ps[i], py[i] = si, yi
			p.sy += si * yi
			p.yy += yi * yi
			if a := math.Abs(gn[i]); a > gradNorm {
				gradNorm = a
			}
		}
		if p.sy > 1e-10 {
			p.rho = 1 / p.sy
			if k < cfg.History {
				k++
			} else {
				evicted := pairs[0]
				copy(pairs, pairs[1:])
				pairs[cfg.History] = evicted
			}
		}

		prevValue := value
		x, xNext = xNext, x
		grad, gradNext = gradNext, grad
		value = valNext

		res.Iterations = iter + 1
		res.Value = value
		res.GradNorm = gradNorm

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
	return res, nil
}

// corrPair is one L-BFGS correction pair with the products the recursion
// reads: rho = 1/sy, and sy, yy for the initial Hessian scaling.
type corrPair struct {
	s, y        []float64
	rho, sy, yy float64
}

// twoLoop writes dir = −H·grad by the two-loop recursion over pairs
// (oldest first), with H₀ = γI, γ = sy/yy of the newest pair, and
// returns grad·dir. alpha holds at least len(pairs) values. It makes
// 2·len(pairs)+1 passes over the vectors, each fusing one AXPY with the
// dot product, scaling or negation that reads its result.
func twoLoop(dir, grad []float64, pairs []corrPair, alpha []float64) float64 {
	k := len(pairs)
	if k == 0 {
		var dd float64
		for i, g := range grad {
			dir[i] = -g
			dd += g * dir[i]
		}
		return dd
	}
	newest := &pairs[k-1]
	gamma := 1.0
	if newest.yy > 0 {
		gamma = newest.sy / newest.yy
	}
	// First loop, newest pair first: alpha_i = rho_i·s_i·dir, then
	// dir −= alpha_i·y_i. The first pass copies grad into dir.
	var dot float64
	dir, s0 := dir[:len(grad)], newest.s[:len(grad)]
	for i, g := range grad {
		dir[i] = g
		dot += s0[i] * g
	}
	for j := k - 1; j >= 1; j-- {
		alpha[j] = pairs[j].rho * dot
		na, y, s := -alpha[j], pairs[j].y[:len(dir)], pairs[j-1].s[:len(dir)]
		dot = 0
		for i := range dir {
			dir[i] += na * y[i]
			dot += s[i] * dir[i]
		}
	}
	// The last AXPY of the first loop, the γ scaling and the second
	// loop's first dot product.
	alpha[0] = pairs[0].rho * dot
	na, y0 := -alpha[0], pairs[0].y[:len(dir)]
	dot = 0
	for i := range dir {
		d := dir[i] + na*y0[i]
		d *= gamma
		dir[i] = d
		dot += y0[i] * d
	}
	// Second loop, oldest pair first: dir += (alpha_i − rho_i·y_i·dir)·s_i.
	for j := 0; j < k-1; j++ {
		c, s, y := alpha[j]-pairs[j].rho*dot, pairs[j].s[:len(dir)], pairs[j+1].y[:len(dir)]
		dot = 0
		for i := range dir {
			dir[i] += c * s[i]
			dot += y[i] * dir[i]
		}
	}
	// The last AXPY, the negation and grad·dir.
	c, s, g := alpha[k-1]-pairs[k-1].rho*dot, pairs[k-1].s[:len(dir)], grad[:len(dir)]
	var dd float64
	for i := range dir {
		d := -(dir[i] + c*s[i])
		dir[i] = d
		dd += g[i] * d
	}
	return dd
}
