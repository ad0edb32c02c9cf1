package crf

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/optimize"
)

// TrainConfig selects the optimizer and its settings.
type TrainConfig struct {
	// Method is "lbfgs" (default) or "sgd".
	Method string
	// LBFGS settings; zero value means optimize.DefaultLBFGSConfig.
	LBFGS optimize.LBFGSConfig
	// SGD settings; zero value means optimize.DefaultSGDConfig.
	SGD optimize.SGDConfig
	// Workers bounds the goroutines used for batch gradient evaluation
	// (at most the fixed chunk count, gradChunks). Zero means GOMAXPROCS.
	// It sets speed only: the gradient, and so the trained model, is the
	// same for every worker count.
	Workers int
}

// Train estimates θ by maximizing the L2-regularized conditional
// log-likelihood of the labeled instances (eq. 4 plus 0.5·λ‖θ‖²,
// minimized as its negation). The instances must carry Labels.
func (m *Model) Train(insts []Instance, cfg TrainConfig) (optimize.Result, error) {
	for i, inst := range insts {
		if len(inst.Labels) != len(inst.Obs) {
			return optimize.Result{}, fmt.Errorf("crf: instance %d: %d labels for %d positions", i, len(inst.Labels), len(inst.Obs))
		}
		for _, y := range inst.Labels {
			if y < 0 || y >= m.cfg.NumStates {
				return optimize.Result{}, fmt.Errorf("crf: instance %d: label %d out of range [0,%d)", i, y, m.cfg.NumStates)
			}
		}
	}
	switch cfg.Method {
	case "", "lbfgs":
		lcfg := cfg.LBFGS
		if lcfg.MaxIterations == 0 && lcfg.History == 0 {
			lcfg = optimize.DefaultLBFGSConfig()
		}
		obj := m.newBatchObjective(insts, cfg.Workers)
		res, err := optimize.LBFGS(obj, m.theta, lcfg)
		if err != nil {
			return res, fmt.Errorf("crf: lbfgs: %w", err)
		}
		copy(m.theta, res.X)
		return res, nil
	case "sgd":
		scfg := cfg.SGD
		if scfg.Epochs == 0 && scfg.Eta0 == 0 {
			scfg = optimize.DefaultSGDConfig()
		}
		// The regularizer is applied by the optimizer as fused weight decay
		// (one multiply inside the update pass) rather than by walking full
		// θ inside every EvalExample; see optimize.SGDConfig.WeightDecay.
		if m.cfg.L2 > 0 && len(insts) > 0 {
			scfg.WeightDecay = m.cfg.L2 / float64(len(insts))
		}
		obj := &sgdObjective{m: m, insts: insts}
		res, err := optimize.SGD(obj, m.theta, scfg)
		if err != nil {
			return res, fmt.Errorf("crf: sgd: %w", err)
		}
		copy(m.theta, res.X)
		return res, nil
	default:
		return optimize.Result{}, fmt.Errorf("crf: unknown training method %q", cfg.Method)
	}
}

// instanceNLL computes the negative log-likelihood of one instance at
// theta and accumulates its gradient (expected minus observed feature
// counts) into grad. All dynamic-programming tables live in the caller-
// provided scratch, so the training loop reuses the same buffers across
// every gradient evaluation. tab, filled at theta or empty, supplies the
// rows of line shapes it has seen; nil scores every position directly.
func (m *Model) instanceNLL(s *scratch, tab *shapeTable, theta []float64, inst Instance, grad []float64) float64 {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	if T == 0 {
		return 0
	}
	m.fillTrainLattice(s, tab, theta, inst)
	nll := s.forward() - m.labelScore(theta, inst.Obs, inst.Labels)
	if grad == nil {
		return nll
	}
	s.backward()

	// Node terms: expected - observed emission counts.
	prob := s.prob[:n]
	for t := 0; t < T; t++ {
		s.nodeMarginals(t, prob)
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

	// Edge terms: expected - observed transition counts.
	edge := s.edge[:n*n]
	for t := 1; t < T; t++ {
		s.edgeMarginals(t, edge)
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
			// A zero p adds +0, which changes no sum: marginals are never
			// −0, so no gradient entry is either.
			g := grad[m.tobsBase+r*n*n:][:len(edge)]
			for k, p := range edge {
				g[k] += p
			}
		}
	}
	return nll
}

// labelScore is the unnormalized log score Σ_t (state_t[y_t] +
// trans_t[y_{t−1}, y_t]) of labels y at theta. Each score is the one
// element of the stateScores or transScores row that y selects, summed in
// the same order, so it is the same bits as reading it off a filled
// lattice.
func (m *Model) labelScore(theta []float64, obs [][]int, y []int) float64 {
	n := m.cfg.NumStates
	var s float64
	for t, ob := range obs {
		st := theta[m.biasBase+y[t]]
		for _, o := range ob {
			st += theta[o*n+y[t]]
		}
		s += st
		if t == 0 {
			continue
		}
		k := y[t-1]*n + y[t]
		tr := theta[m.transBase+k]
		for _, o := range ob {
			if r := m.transRank[o]; r >= 0 {
				tr += theta[m.tobsBase+r*n*n+k]
			}
		}
		s += tr
	}
	return s
}

// gradChunks is the fixed number of contiguous instance ranges the batch
// gradient is split into. Each chunk sums its instances in order, and the
// chunks are added in order, so the objective and its gradient are the
// same bits for every worker count.
const gradChunks = 8

// foldBlock is the number of θ entries Eval folds at a time.
const foldBlock = 512

// batchObjective is the full-batch regularized NLL with parallel
// per-chunk evaluation, as the paper's parallel L-BFGS requires.
type batchObjective struct {
	m     *Model
	insts []Instance

	values  [gradChunks]float64
	grads   [gradChunks][]float64 // per-chunk gradients, zero between Evals
	workers []gradWorker          // one per goroutine, reused across Evals
}

// gradWorker is one gradient goroutine's inference scratch and its score
// table for the θ being evaluated.
type gradWorker struct {
	s   scratch
	tab shapeTable
}

func (m *Model) newBatchObjective(insts []Instance, workers int) *batchObjective {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, gradChunks)
	b := &batchObjective{m: m, insts: insts, workers: make([]gradWorker, workers)}
	for c := range b.grads {
		b.grads[c] = make([]float64, len(m.theta))
	}
	return b
}

func (b *batchObjective) Dim() int { return len(b.m.theta) }

// Eval sums the chunks' NLLs and gradients in chunk order, so the result
// is the same bits for every worker count. The fold is one pass over θ in
// blocks of foldBlock entries small enough to stay in L1: each block of
// grad sums the chunk gradients' blocks in chunk order, zeroes them for
// the next Eval, and adds the L2 term.
func (b *batchObjective) Eval(theta, grad []float64) float64 {
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := range b.workers {
		wg.Add(1)
		go func(gw *gradWorker) {
			defer wg.Done()
			gw.tab.reset()
			for c := int(next.Add(1)) - 1; c < gradChunks; c = int(next.Add(1)) - 1 {
				g := b.grads[c]
				var v float64
				for _, inst := range b.insts[c*len(b.insts)/gradChunks : (c+1)*len(b.insts)/gradChunks] {
					v += b.m.instanceNLL(&gw.s, &gw.tab, theta, inst, g)
				}
				b.values[c] = v
			}
		}(&b.workers[w])
	}
	wg.Wait()
	var total float64
	for _, v := range b.values {
		total += v
	}
	l2 := b.m.cfg.L2
	var reg float64
	for lo := 0; lo < len(grad); lo += foldBlock {
		out := grad[lo:min(lo+foldBlock, len(grad))]
		clear(out)
		for c := range b.grads {
			g := b.grads[c][lo:][:len(out)]
			for i, x := range g {
				out[i] += x
			}
			clear(g)
		}
		if l2 > 0 {
			for i, th := range theta[lo:][:len(out)] {
				reg += th * th
				out[i] += l2 * th
			}
		}
	}
	if l2 > 0 {
		total += 0.5 * l2 * reg
	}
	return total
}

// sgdObjective adapts per-instance NLL to optimize.StochasticObjective.
// It evaluates the data term only: the L2 regularizer is handled by the
// optimizer's WeightDecay (set in Train), which folds the decay into the
// update pass instead of scanning full θ here on every example. θ changes
// after every example, so the table is reset before each one.
type sgdObjective struct {
	m     *Model
	insts []Instance
	gw    gradWorker
}

func (s *sgdObjective) Dim() int         { return len(s.m.theta) }
func (s *sgdObjective) NumExamples() int { return len(s.insts) }

func (s *sgdObjective) EvalExample(i int, theta, grad []float64) float64 {
	s.gw.tab.reset()
	return s.m.instanceNLL(&s.gw.s, &s.gw.tab, theta, s.insts[i], grad)
}
