package crf

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mathx"
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
		m.invalidateScores()
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
		m.invalidateScores()
		return res, nil
	default:
		return optimize.Result{}, fmt.Errorf("crf: unknown training method %q", cfg.Method)
	}
}

// instanceNLL computes the negative log-likelihood of one instance at
// theta and accumulates its gradient (expected minus observed feature
// counts) into grad. All dynamic-programming tables live in the caller-
// provided scratch, so the training loop reuses the same buffers across
// every gradient evaluation.
func (m *Model) instanceNLL(s *scratch, theta []float64, inst Instance, grad []float64) float64 {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	if T == 0 {
		return 0
	}
	m.fillLattice(s, theta, inst, nil)
	nll := s.forward() - latticeSeqScore(&s.lat, inst.Labels)
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

// gradChunks is the fixed number of contiguous instance ranges the batch
// gradient is split into. Each chunk sums its instances in order, and the
// chunks are added in order, so the objective and its gradient are the
// same bits for every worker count.
const gradChunks = 8

// batchObjective is the full-batch regularized NLL with parallel
// per-chunk evaluation, as the paper's parallel L-BFGS requires.
type batchObjective struct {
	m       *Model
	insts   []Instance
	workers int

	values    [gradChunks]float64
	grads     [gradChunks][]float64 // per-chunk gradients, reused across Evals
	scratches []scratch             // per-worker inference scratch, reused across Evals
}

func (m *Model) newBatchObjective(insts []Instance, workers int) *batchObjective {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, gradChunks)
	b := &batchObjective{m: m, insts: insts, workers: workers, scratches: make([]scratch, workers)}
	for c := range b.grads {
		b.grads[c] = make([]float64, len(m.theta))
	}
	return b
}

func (b *batchObjective) Dim() int { return len(b.m.theta) }

func (b *batchObjective) Eval(theta, grad []float64) float64 {
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func(s *scratch) {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < gradChunks; c = int(next.Add(1)) - 1 {
				g := b.grads[c]
				mathx.Fill(g, 0)
				var v float64
				for _, inst := range b.insts[c*len(b.insts)/gradChunks : (c+1)*len(b.insts)/gradChunks] {
					v += b.m.instanceNLL(s, theta, inst, g)
				}
				b.values[c] = v
			}
		}(&b.scratches[w])
	}
	wg.Wait()
	mathx.Fill(grad, 0)
	var total float64
	for c := range b.grads {
		total += b.values[c]
		mathx.AXPY(1, b.grads[c], grad)
	}
	// L2 regularizer.
	l2 := b.m.cfg.L2
	if l2 > 0 {
		var reg float64
		for i, th := range theta {
			reg += th * th
			grad[i] += l2 * th
		}
		total += 0.5 * l2 * reg
	}
	return total
}

// sgdObjective adapts per-instance NLL to optimize.StochasticObjective.
// It evaluates the data term only: the L2 regularizer is handled by the
// optimizer's WeightDecay (set in Train), which folds the decay into the
// update pass instead of scanning full θ here on every example.
type sgdObjective struct {
	m       *Model
	insts   []Instance
	scratch scratch
}

func (s *sgdObjective) Dim() int         { return len(s.m.theta) }
func (s *sgdObjective) NumExamples() int { return len(s.insts) }

func (s *sgdObjective) EvalExample(i int, theta, grad []float64) float64 {
	return s.m.instanceNLL(&s.scratch, theta, s.insts[i], grad)
}
