package crf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/labels"
	"repro/internal/mathx"
	"repro/internal/synth"
	"repro/internal/templates"
	"repro/internal/tokenize"
)

// Tests over real lattices: the parser's two CRF levels on synthetic
// labelled WHOIS records, built the way core.Train builds them (core
// imports crf, so its helpers cannot be used here).

// corpus is both levels' models and labelled instances over one set of
// labelled records.
type corpus struct {
	block, field           *Model
	blockInsts, fieldInsts []Instance
}

// newCorpus builds untrained models over n labelled records as core.Train
// does: one dictionary per level (MinCount 2, TransMinCount 1, L2 1), the
// block level over every line and the field level over each record's
// registrant lines.
func newCorpus(n int, seed int64) *corpus {
	recs := synth.GenerateLabeled(synth.Config{N: n, Seed: seed})
	var blockSeqs, fieldSeqs [][]tokenize.Line
	var blockLabels, fieldLabels [][]int
	for _, rec := range recs {
		lines := tokenize.Tokenize(rec.Text, tokenize.Options{})
		var bl, fl []int
		var fseq []tokenize.Line
		for t, ln := range rec.Lines {
			bl = append(bl, int(ln.Block))
			if ln.Block == labels.Registrant {
				fseq = append(fseq, lines[t])
				fl = append(fl, int(ln.Field))
			}
		}
		blockSeqs, blockLabels = append(blockSeqs, lines), append(blockLabels, bl)
		if len(fseq) > 0 {
			fieldSeqs, fieldLabels = append(fieldSeqs, fseq), append(fieldLabels, fl)
		}
	}
	level := func(seqs [][]tokenize.Line, labs [][]int, numStates int) (*Model, []Instance) {
		m := New(tokenize.BuildDictionary(seqs, 2), Config{NumStates: numStates, TransMinCount: 1, L2: 1})
		insts := make([]Instance, len(seqs))
		for i, seq := range seqs {
			insts[i] = m.MapLines(seq)
			insts[i].Labels = labs[i]
		}
		return m, insts
	}
	c := &corpus{}
	c.block, c.blockInsts = level(blockSeqs, blockLabels, labels.NumBlocks)
	c.field, c.fieldInsts = level(fieldSeqs, fieldLabels, labels.NumFields)
	return c
}

var (
	trainedOnce   sync.Once
	trainedCorpus *corpus
)

// trained returns a corpus of 100 records whose models are trained with
// the default L-BFGS settings, as `whoisparse train` trains them.
func trained(t *testing.T) *corpus {
	t.Helper()
	trainedOnce.Do(func() {
		c := newCorpus(100, 7)
		for _, lv := range []struct {
			m     *Model
			insts []Instance
		}{{c.block, c.blockInsts}, {c.field, c.fieldInsts}} {
			if _, err := lv.m.Train(lv.insts, TrainConfig{}); err != nil {
				panic(err)
			}
		}
		trainedCorpus = c
	})
	return trainedCorpus
}

// diffCorpus is the parse-diff corpus at its default size: every .com and
// new-TLD schema and each drift mutation of it, rendered for two
// registrations, plus 40 synthetic records with drifted formats mixed in.
func diffCorpus() []string {
	var texts []string
	regs := synth.Generate(synth.Config{N: 2, Seed: 1})
	for _, sc := range append(templates.ComSchemas(), templates.NewTLDSchemas()...) {
		variants := []*templates.Schema{sc}
		for k := templates.DriftTitles; k <= templates.DriftDates; k++ {
			variants = append(variants, templates.Drift(sc, k))
		}
		for _, v := range variants {
			for _, d := range regs {
				texts = append(texts, v.Render(&d.Reg).Text)
			}
		}
	}
	for _, d := range synth.Generate(synth.Config{N: 40, Seed: 1, DriftFraction: 0.2, BrandFraction: 0.02}) {
		texts = append(texts, d.Render().Text)
	}
	return texts
}

// rowSwing is the largest spread of one ψ row's log-potentials,
// max_j − min_j of trans_t[i,j] + state_t[j], over the instance's
// positions t ≥ 1 and previous labels i: how far the evidence swings
// between neighbouring positions. Past about 708 the row's smallest
// entries underflow exp, and the scaled kernel can leave the log-space
// recursion.
func rowSwing(m *Model, inst Instance) float64 {
	var s scratch
	m.fillTrainLattice(&s, nil, m.Theta(), inst)
	n := m.NumStates()
	var swing float64
	for t := 1; t < len(inst.Obs); t++ {
		st, tr := s.lat.stateRow(t), s.lat.transRow(t)
		for i := 0; i < n; i++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for j, x := range st {
				x += tr[i*n+j]
				lo, hi = min(lo, x), max(hi, x)
			}
			swing = max(swing, hi-lo)
		}
	}
	return swing
}

// TestKernelMatchesLogSpaceOnRealLattices runs the scaled kernel against
// the log-space reference on the parse-diff corpus's lattices under
// trained block and field models (LogZ, node and edge marginals,
// Posterior), and on the training instances' NLL and gradients, and logs
// the largest evidence swing it saw.
func TestKernelMatchesLogSpaceOnRealLattices(t *testing.T) {
	if raceEnabled {
		t.Skip("trains two CRFs to convergence; too slow under -race, and single-goroutine")
	}
	c := trained(t)
	var blockSwing, fieldSwing float64
	check := func(m *Model, inst Instance, label string) float64 {
		checkAgainstNaive(t, m, inst, label)
		if post, want := m.Posterior(inst), m.naiveLogZ(inst); !near(post.LogZ, want) {
			t.Fatalf("%s: Posterior.LogZ %v, naive %v", label, post.LogZ, want)
		}
		return rowSwing(m, inst)
	}
	texts := diffCorpus()
	for i, text := range texts {
		lines := tokenize.Tokenize(text, tokenize.Options{})
		if len(lines) == 0 {
			continue
		}
		inst := c.block.MapLines(lines)
		blockSwing = max(blockSwing, check(c.block, inst, fmt.Sprintf("text %d block level", i)))
		path, _ := c.block.Decode(inst)
		var reg []tokenize.Line
		for t, y := range path {
			if labels.Block(y) == labels.Registrant {
				reg = append(reg, lines[t])
			}
		}
		if len(reg) > 0 {
			fieldSwing = max(fieldSwing, check(c.field, c.field.MapLines(reg), fmt.Sprintf("text %d field level", i)))
		}
	}
	var s scratch
	for i, inst := range c.blockInsts {
		checkGradient(t, c.block, &s, nil, inst, fmt.Sprintf("block training instance %d", i))
	}
	for i, inst := range c.fieldInsts {
		checkGradient(t, c.field, &s, nil, inst, fmt.Sprintf("field training instance %d", i))
	}
	t.Logf("%d texts: largest evidence swing between neighbouring positions %.1f (block level), %.1f (field level); exp underflows past ~708",
		len(texts), blockSwing, fieldSwing)
}

// TestTableMatchesDirectScoring: the per-θ table changes no bit of the
// NLL or the gradient, over real corpus instances. The batch path shares
// one table across an Eval's instances, and resets it when the next Eval
// brings a new θ; the SGD path resets it before every example. Both are
// compared with == against scoring every position directly.
func TestTableMatchesDirectScoring(t *testing.T) {
	c := newCorpus(40, 11)
	rng := rand.New(rand.NewSource(12))
	for _, lv := range []struct {
		name  string
		m     *Model
		insts []Instance
	}{{"block", c.block, c.blockInsts}, {"field", c.field, c.fieldInsts}} {
		m := lv.m
		theta := make([]float64, m.NumFeatures())
		for i := range theta {
			theta[i] = rng.NormFloat64()
		}

		// Batch path: two Evals at different θ through the production
		// objective, against the direct per-chunk sums folded as
		// Fill + AXPY in chunk order, then the L2 term.
		obj := m.newBatchObjective(lv.insts, 2)
		for pass := 0; pass < 2; pass++ {
			got := make([]float64, len(theta))
			gotV := obj.Eval(theta, got)
			want := make([]float64, len(theta))
			var wantV float64
			var s scratch
			for ch := 0; ch < gradChunks; ch++ {
				g := make([]float64, len(theta))
				var v float64
				for _, inst := range lv.insts[ch*len(lv.insts)/gradChunks : (ch+1)*len(lv.insts)/gradChunks] {
					v += m.instanceNLL(&s, nil, theta, inst, g)
				}
				wantV += v
				mathx.AXPY(1, g, want)
			}
			var reg float64
			for i, th := range theta {
				reg += th * th
				want[i] += m.cfg.L2 * th
			}
			wantV += 0.5 * m.cfg.L2 * reg
			if gotV != wantV {
				t.Fatalf("%s Eval %d: value %v, direct %v", lv.name, pass, gotV, wantV)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s Eval %d: grad[%d] %v, direct %v", lv.name, pass, i, got[i], want[i])
				}
			}
			for i := range theta {
				theta[i] -= 0.01 * want[i]
			}
		}

		// SGD path: the production per-example objective against direct
		// scoring, with θ stepping after every example.
		sgd := &sgdObjective{m: m, insts: lv.insts}
		var s scratch
		got, want := make([]float64, len(theta)), make([]float64, len(theta))
		for i, inst := range lv.insts {
			mathx.Fill(got, 0)
			mathx.Fill(want, 0)
			gotV := sgd.EvalExample(i, theta, got)
			wantV := m.instanceNLL(&s, nil, theta, inst, want)
			if gotV != wantV {
				t.Fatalf("%s example %d: nll %v, direct %v", lv.name, i, gotV, wantV)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s example %d: grad[%d] %v, direct %v", lv.name, i, k, got[k], want[k])
				}
			}
			mathx.AXPY(-0.05, want, theta)
		}
	}
}

// TestTableBound: past maxTableShapes the table keeps no new shape, and
// rows are still computed directly and exactly.
func TestTableBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dict := makeDict(t, 20)
	m := randomModel(rng, dict, 4)
	var tab shapeTable
	stride := 2*4 + 4*4
	for i := 0; len(tab.shapes) < maxTableShapes; i++ {
		tab.shape([]int{-1 - i}, stride) // ids no instance has
	}
	inst := randomInstance(rng, dict, 12, 4, true)
	var s1, s2 scratch
	g1, g2 := make([]float64, m.NumFeatures()), make([]float64, m.NumFeatures())
	v1 := m.instanceNLL(&s1, &tab, m.Theta(), inst, g1)
	v2 := m.instanceNLL(&s2, nil, m.Theta(), inst, g2)
	if len(tab.shapes) != maxTableShapes {
		t.Fatalf("table grew to %d shapes, bound %d", len(tab.shapes), maxTableShapes)
	}
	if v1 != v2 {
		t.Fatalf("full table: nll %v, direct %v", v1, v2)
	}
	for k := range g1 {
		if g1[k] != g2[k] {
			t.Fatalf("full table: grad[%d] %v, direct %v", k, g1[k], g2[k])
		}
	}
}

// TestTableCollisionIsMiss: a signature held by another shape (a hash
// collision, forced here by pointing B's signature at A's entry) is a
// miss, never A's rows.
func TestTableCollisionIsMiss(t *testing.T) {
	var tab shapeTable
	a, b := []int{1, 2, 3}, []int{4, 5, 6}
	if e, _, fresh := tab.shape(a, 4); e == nil || !fresh {
		t.Fatal("first sight of a shape must add it")
	}
	tab.index[obsSignature(b)] = tab.index[obsSignature(a)]
	if e, _, _ := tab.shape(b, 4); e != nil {
		t.Fatal("a colliding shape was served another shape's rows")
	}
	if e, _, fresh := tab.shape(a, 4); e == nil || fresh {
		t.Fatal("a kept shape must hit")
	}
}
