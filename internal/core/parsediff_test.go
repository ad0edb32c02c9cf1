package core_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/crf"
	"repro/internal/optimize"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/templates"
	"repro/internal/tokenize"
)

// The differential gate of the fused parse path. Parse,
// ParseWithConfidence and Confidence scan a record once and map its
// observation bytes straight to dictionary ids; ParseBlocks and
// ParseFields build every observation string with tokenize.Tokenize and
// map them with MapLines. The two must agree on every record, under
// every tokenize.Options combination: the same store encoding (lines,
// labels and every extracted field), the same Title/Value/HasSep per
// line, and bit-identical confidences. `make parse-diff` runs it on a
// larger corpus with a fresh seed each day.

func envInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// diffTexts renders every .com and new-TLD schema, and each of its drift
// mutations, for two registrations, plus an n-record synthetic corpus
// with drifted formats mixed in.
func diffTexts(n int, seed int64) []string {
	var texts []string
	regs := synth.Generate(synth.Config{N: 2, Seed: seed})
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
	for _, d := range synth.Generate(synth.Config{N: n, Seed: seed, DriftFraction: 0.2, BrandFraction: 0.02}) {
		texts = append(texts, d.Render().Text)
	}
	return texts
}

// referenceParse is Parse spelled through the string-building path.
func referenceParse(p *core.Parser, text string) *core.ParsedRecord {
	lines, blocks := p.ParseBlocks(text)
	rec := &core.ParsedRecord{Lines: lines, Blocks: blocks, Fields: p.ParseFields(lines, blocks)}
	rec.ExtractFields()
	return rec
}

// recordDiff describes how got differs from want, or returns "".
func recordDiff(got, want *core.ParsedRecord) string {
	enc := func(r *core.ParsedRecord) []byte {
		return store.EncodeRecord(nil, &store.Record{Domain: "diff", Parsed: r})
	}
	if !bytes.Equal(enc(got), enc(want)) {
		return fmt.Sprintf("store encodings differ:\n got  %+v\n want %+v", got, want)
	}
	for i, w := range want.Lines {
		g := got.Lines[i]
		if g.Raw != w.Raw || g.Title != w.Title || g.Value != w.Value || g.HasSep != w.HasSep {
			return fmt.Sprintf("line %d: got %+v, want %+v", i, g, w)
		}
		if g.Obs != nil {
			return fmt.Sprintf("line %d carries Obs %q", i, g.Obs)
		}
	}
	return ""
}

// confidenceDiff checks ParseWithConfidence's minimum and Confidence's
// per-line output against a Posterior over the reference instance.
func confidenceDiff(p *core.Parser, text string, want *core.ParsedRecord, gotMin float64) string {
	refMin := 1.0
	var post crf.Posterior
	if len(want.Lines) > 0 {
		lines := tokenize.Tokenize(text, p.Config().Tokenize)
		post = p.BlockModel().Posterior(p.BlockModel().MapLines(lines))
		for i, y := range post.Path {
			refMin = min(refMin, post.Marginals[i][y])
		}
	}
	if gotMin != refMin {
		return fmt.Sprintf("ParseWithConfidence min %v, reference %v", gotMin, refMin)
	}
	lcs, cmin := p.Confidence(text)
	if cmin != refMin || len(lcs) != len(want.Lines) {
		return fmt.Sprintf("Confidence min %v over %d lines, reference %v over %d", cmin, len(lcs), refMin, len(want.Lines))
	}
	for i, lc := range lcs {
		if lc.Block != want.Blocks[i] || lc.Prob != post.Marginals[i][post.Path[i]] ||
			lc.Line.Raw != want.Lines[i].Raw || lc.Line.Value != want.Lines[i].Value {
			return fmt.Sprintf("Confidence line %d: %+v, reference block %v prob %v",
				i, lc, want.Blocks[i], post.Marginals[i][post.Path[i]])
		}
	}
	return ""
}

func TestParseDifferential(t *testing.T) {
	n := int(envInt("PARSEDIFF_N", 40))
	seed := envInt("PARSEDIFF_SEED", 1)
	t.Logf("differential corpus: PARSEDIFF_N=%d PARSEDIFF_SEED=%d", n, seed)
	texts := diffTexts(n, seed)
	// Model quality is beside the point; a small, quickly trained model
	// still has both dictionaries and drops unseen observations.
	train := synth.GenerateLabeled(synth.Config{N: 80, Seed: 7})
	for m := 0; m < 8; m++ {
		opts := tokenize.Options{
			DisableTitleValue: m&1 != 0,
			DisableLayout:     m&2 != 0,
			DisableClasses:    m&4 != 0,
		}
		t.Run(fmt.Sprintf("opts=%d", m), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Tokenize = opts
			lbfgs := optimize.DefaultLBFGSConfig()
			lbfgs.MaxIterations = 20
			cfg.Train = crf.TrainConfig{LBFGS: lbfgs}
			p, _, err := core.Train(train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			differing := 0
			for i, text := range texts {
				want := referenceParse(p, text)
				got := p.Parse(text)
				withConf, gotMin := p.ParseWithConfidence(text)
				diff := recordDiff(got, want)
				if diff == "" {
					diff = recordDiff(withConf, want)
				}
				if diff == "" {
					diff = confidenceDiff(p, text, want, gotMin)
				}
				if diff != "" {
					differing++
					if differing <= 3 {
						t.Errorf("text %d (%+v): %s\n%s", i, opts, diff, text)
					}
				}
			}
			t.Logf("%+v: %d texts, %d differing", opts, len(texts), differing)
		})
	}
}
