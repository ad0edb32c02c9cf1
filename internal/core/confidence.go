package core

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/labels"
	"repro/internal/tokenize"
)

// The §5.3 maintainability loop needs mislabeled records to be *found*
// before they can be fixed with new labeled examples. The CRF provides a
// principled signal for free: the posterior marginal probability of each
// predicted label. Lines the model labels with low confidence are exactly
// where new formats show up.

// LineConfidence pairs a predicted label with its posterior probability.
type LineConfidence struct {
	Line  tokenize.Line
	Block labels.Block
	// Prob is Pr(y_t = predicted | x), from forward-backward marginals.
	Prob float64
}

// Confidence runs first-level decoding and returns the per-line posterior
// probability of each predicted block, plus the minimum across lines (the
// record's weakest link). An empty record returns (nil, 1). The Viterbi
// path and the marginals come from one fused crf.Posterior pass, so the
// lattice is built once rather than once per quantity. Like Parse, it
// maps the scanned record straight to ids, so each returned Line has a
// nil Obs.
func (p *Parser) Confidence(text string) ([]LineConfidence, float64) {
	ps := parseScratchPool.Get().(*parseScratch)
	defer parseScratchPool.Put(ps)
	ps.scan.Reset(text, p.cfg.Tokenize)
	lines := ps.scan.Lines
	if len(lines) == 0 {
		return nil, 1
	}
	post := p.block.Posterior(ps.instance(p.block.Dict(), nil))
	out := make([]LineConfidence, len(lines))
	min := 1.0
	for i := range lines {
		prob := post.Marginals[i][post.Path[i]]
		out[i] = LineConfidence{Line: lines[i], Block: labels.Block(post.Path[i]), Prob: prob}
		if prob < min {
			min = prob
		}
	}
	if p.met != nil {
		// The distribution of weakest-link confidence across records is
		// the live triage dashboard: a growing low tail means a new
		// format is arriving (§5.3).
		p.met.confidenceMin.Observe(min)
	}
	return out, min
}

// ParseWithConfidence is Parse fused with the §5.3 triage signal: both
// levels run as usual, and the per-line posterior marginals of the
// first-level decode come out of the same lattice pass (crf.Posterior),
// so the minimum line confidence — the record's weakest link — costs one
// forward-backward instead of a separate Confidence call. The live drift
// sentinel (internal/lifecycle) samples this path to watch registrars
// whose confidence distribution degrades.
func (p *Parser) ParseWithConfidence(text string) (*ParsedRecord, float64) {
	return p.parse(text, true)
}

// RankByUncertainty orders record texts by ascending minimum line
// confidence: the records most worth labeling next. It returns the indices
// into texts, most uncertain first — the active-learning selection the
// paper's "add a handful of labeled examples" workflow implies. Scoring
// runs across a bounded worker pool (GOMAXPROCS goroutines), mirroring
// ParseAll; ties keep their original order.
func (p *Parser) RankByUncertainty(texts []string) []int {
	conf := make([]float64, len(texts))
	if len(texts) > 0 {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(texts) {
			workers = len(texts)
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					_, conf[i] = p.Confidence(texts[i])
				}
			}()
		}
		for i := range texts {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	out := make([]int, len(texts))
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool { return conf[out[a]] < conf[out[b]] })
	return out
}
