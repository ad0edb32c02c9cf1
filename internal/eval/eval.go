// Package eval implements the paper's evaluation protocol (§5): line and
// document error rates, five-fold cross-validation, and training-set-size
// sweeps comparing parsers built from the same labeled subsets.
package eval

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/labels"
	"repro/internal/tokenize"
)

// BlockParser is any parser that labels each retained line of a record
// with a first-level block. Both the statistical and rule-based parsers
// satisfy it.
type BlockParser interface {
	ParseBlocks(text string) ([]tokenize.Line, []labels.Block)
}

// FieldParser additionally assigns second-level registrant fields.
type FieldParser interface {
	BlockParser
	ParseFields(lines []tokenize.Line, blocks []labels.Block) []labels.Field
}

// Metrics accumulates error counts over an evaluation set.
type Metrics struct {
	Lines      int // total labeled lines
	LineErrors int // mislabeled lines
	Docs       int // total records
	DocErrors  int // records with >= 1 mislabeled line
}

// LineErrorRate is the fraction of mislabeled lines (Figure 2's metric).
func (m Metrics) LineErrorRate() float64 {
	if m.Lines == 0 {
		return 0
	}
	return float64(m.LineErrors) / float64(m.Lines)
}

// DocErrorRate is the fraction of imperfect records (Figure 3's metric).
func (m Metrics) DocErrorRate() float64 {
	if m.Docs == 0 {
		return 0
	}
	return float64(m.DocErrors) / float64(m.Docs)
}

// EvalBlocks measures first-level performance of p on labeled records.
// Records whose tokenization does not align with their labels are skipped
// with an error (they indicate corpus corruption, not parser error).
func EvalBlocks(p BlockParser, records []*labels.LabeledRecord) (Metrics, error) {
	var m Metrics
	for _, rec := range records {
		_, blocks := p.ParseBlocks(rec.Text)
		if len(blocks) != len(rec.Lines) {
			return m, fmt.Errorf("eval: record %s: parser returned %d labels for %d lines",
				rec.Domain, len(blocks), len(rec.Lines))
		}
		bad := 0
		for i, b := range blocks {
			if b != rec.Lines[i].Block {
				bad++
			}
		}
		m.Lines += len(blocks)
		m.LineErrors += bad
		m.Docs++
		if bad > 0 {
			m.DocErrors++
		}
	}
	return m, nil
}

// EvalFields measures second-level performance on the lines whose ground
// truth is Registrant. Block prediction errors count as field errors too,
// since a missed registrant line yields no field.
func EvalFields(p FieldParser, records []*labels.LabeledRecord) (Metrics, error) {
	var m Metrics
	for _, rec := range records {
		lines, blocks := p.ParseBlocks(rec.Text)
		if len(blocks) != len(rec.Lines) {
			return m, fmt.Errorf("eval: record %s: parser returned %d labels for %d lines",
				rec.Domain, len(blocks), len(rec.Lines))
		}
		fields := p.ParseFields(lines, blocks)
		bad := 0
		total := 0
		for i := range blocks {
			if rec.Lines[i].Block != labels.Registrant {
				continue
			}
			total++
			if blocks[i] != labels.Registrant || fields[i] != rec.Lines[i].Field {
				bad++
			}
		}
		if total == 0 {
			continue
		}
		m.Lines += total
		m.LineErrors += bad
		m.Docs++
		if bad > 0 {
			m.DocErrors++
		}
	}
	return m, nil
}

// Factory builds a parser from a training subset. The §5.1 protocol
// constructs both parser types this way ("roll back" for rules, parameter
// restriction for the CRF).
type Factory func(train []*labels.LabeledRecord) (BlockParser, error)

// SweepPoint is one (training size, error statistics) result.
type SweepPoint struct {
	TrainSize   int
	LineMean    float64
	LineStd     float64
	DocMean     float64
	DocStd      float64
	Folds       int
	TotalTrains int
}

// CrossValidate runs the five-fold protocol of §5.1: the records are split
// into `folds` folds; within each fold a training subset of each size is
// drawn, a parser is built from it, and the error is measured on all
// records outside that fold. Mean and standard deviation across folds are
// reported per size.
func CrossValidate(records []*labels.LabeledRecord, sizes []int, folds int, seed int64, factory Factory) ([]SweepPoint, error) {
	if folds < 2 {
		return nil, fmt.Errorf("eval: need at least 2 folds, got %d", folds)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(records))
	foldOf := make([]int, len(records))
	for i, p := range perm {
		foldOf[p] = i % folds
	}

	out := make([]SweepPoint, 0, len(sizes))
	for _, size := range sizes {
		var lineRates, docRates []float64
		for f := 0; f < folds; f++ {
			var inFold, outFold []*labels.LabeledRecord
			for i, rec := range records {
				if foldOf[i] == f {
					inFold = append(inFold, rec)
				} else {
					outFold = append(outFold, rec)
				}
			}
			train := inFold
			if size < len(inFold) {
				idx := rng.Perm(len(inFold))[:size]
				train = make([]*labels.LabeledRecord, size)
				for k, j := range idx {
					train[k] = inFold[j]
				}
			}
			p, err := factory(train)
			if err != nil {
				return nil, fmt.Errorf("eval: build parser (size %d, fold %d): %w", size, f, err)
			}
			m, err := EvalBlocks(p, outFold)
			if err != nil {
				return nil, err
			}
			lineRates = append(lineRates, m.LineErrorRate())
			docRates = append(docRates, m.DocErrorRate())
		}
		lm, ls := meanStd(lineRates)
		dm, ds := meanStd(docRates)
		out = append(out, SweepPoint{
			TrainSize: size, LineMean: lm, LineStd: ls,
			DocMean: dm, DocStd: ds, Folds: folds, TotalTrains: folds,
		})
	}
	return out, nil
}

// FieldFactory builds a field-capable parser from a training subset.
type FieldFactory func(train []*labels.LabeledRecord) (FieldParser, error)

// CrossValidateFields runs the five-fold protocol over second-level
// (registrant subfield) labeling — the companion sweep to Figures 2–3 for
// the paper's second CRF.
func CrossValidateFields(records []*labels.LabeledRecord, sizes []int, folds int, seed int64, factory FieldFactory) ([]SweepPoint, error) {
	if folds < 2 {
		return nil, fmt.Errorf("eval: need at least 2 folds, got %d", folds)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(records))
	foldOf := make([]int, len(records))
	for i, p := range perm {
		foldOf[p] = i % folds
	}
	out := make([]SweepPoint, 0, len(sizes))
	for _, size := range sizes {
		var lineRates, docRates []float64
		for f := 0; f < folds; f++ {
			var inFold, outFold []*labels.LabeledRecord
			for i, rec := range records {
				if foldOf[i] == f {
					inFold = append(inFold, rec)
				} else {
					outFold = append(outFold, rec)
				}
			}
			train := inFold
			if size < len(inFold) {
				idx := rng.Perm(len(inFold))[:size]
				train = make([]*labels.LabeledRecord, size)
				for k, j := range idx {
					train[k] = inFold[j]
				}
			}
			p, err := factory(train)
			if err != nil {
				return nil, fmt.Errorf("eval: build field parser (size %d, fold %d): %w", size, f, err)
			}
			m, err := EvalFields(p, outFold)
			if err != nil {
				return nil, err
			}
			lineRates = append(lineRates, m.LineErrorRate())
			docRates = append(docRates, m.DocErrorRate())
		}
		lm, ls := meanStd(lineRates)
		dm, ds := meanStd(docRates)
		out = append(out, SweepPoint{
			TrainSize: size, LineMean: lm, LineStd: ls,
			DocMean: dm, DocStd: ds, Folds: folds, TotalTrains: folds,
		})
	}
	return out, nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
