package whoisparse

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md §4 for the experiment index) and measures the hot paths
// of the parser itself. Accuracy-shaped results are reported as custom
// benchmark metrics (lineerr, docerr, coverage, ...) so `go test -bench`
// doubles as the reproduction record.
//
// One bench per paper artifact:
//
//	BenchmarkSec23Baselines  — §2.3 coverage/fragility numbers
//	BenchmarkTable1          — heavily weighted features
//	BenchmarkFigure1         — transition features
//	BenchmarkFigure2         — line error vs training size (rule vs CRF)
//	BenchmarkFigure3         — document error vs training size
//	BenchmarkTable2          — new-TLD generalization + §5.3 adaptation
//	BenchmarkTable3/4/5/6/7/8/9 — §6 survey tables
//	BenchmarkFigure4 / BenchmarkFigure5 — §6 survey figures
//	BenchmarkCrawl           — §4.1 crawl over loopback TCP
//
// plus microbenchmarks (tokenize, decode, train, parse, a distinct-record
// parse stream) and the ablation suite over the design choices DESIGN.md
// calls out.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/labels"
	"repro/internal/rulebased"
	"repro/internal/survey"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// benchOptions are smaller than experiments.Quick so the full bench suite
// stays in the minutes range.
func benchOptions() experiments.Options {
	return experiments.Options{
		CorpusSize: 400, TrainSizes: []int{20, 100}, Folds: 2,
		SurveySize: 1500, CrawlSize: 120, MaxIterations: 40,
	}.Defaults()
}

var (
	benchSetup  sync.Once
	benchCorpus []*labels.LabeledRecord
	benchParser *core.Parser
	benchText   string
	benchInst   crf.Instance
)

func setupBench(b *testing.B) {
	b.Helper()
	benchSetup.Do(func() {
		benchCorpus = synth.GenerateLabeled(synth.Config{N: 600, Seed: 401})
		p, _, err := experiments.TrainParser(benchCorpus[:200], benchOptions())
		if err != nil {
			panic(err)
		}
		benchParser = p
		benchText = benchCorpus[300].Text
		lines := tokenize.Tokenize(benchText, tokenize.Options{})
		benchInst = p.BlockModel().MapLines(lines)
	})
}

// ---- Microbenchmarks ----

func BenchmarkTokenizeRecord(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tokenize.Tokenize(benchText, tokenize.Options{})
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchParser.BlockModel().Decode(benchInst)
	}
}

func BenchmarkForwardBackwardMarginals(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchParser.BlockModel().Marginals(benchInst)
	}
}

// BenchmarkPosterior measures the fused Viterbi + forward-backward pass
// that Confidence and the active-learning loop sit on; compare against
// BenchmarkDecodeRecord + BenchmarkForwardBackwardMarginals, which is what
// the unfused code paid per record.
func BenchmarkPosterior(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchParser.BlockModel().Posterior(benchInst)
	}
}

// BenchmarkParseAllWorkers measures the §6 bulk-survey path at several
// worker-pool widths over a mixed batch of records.
func BenchmarkParseAllWorkers(b *testing.B) {
	setupBench(b)
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = benchCorpus[300+i%300].Text
	}
	widths := []struct {
		name string
		n    int
	}{{"1", 1}, {"4", 4}, {"max", runtime.GOMAXPROCS(0)}}
	for _, w := range widths {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchParser.ParseAll(texts, w.n)
			}
		})
	}
}

func BenchmarkParseRecord(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchParser.Parse(benchText)
	}
}

var (
	streamSetup sync.Once
	streamTexts []string
)

// BenchmarkParseStream parses a seeded cycle of 4,096 distinct records,
// drawn as perfbench draws its traffic (BrandFraction 0.02), with the
// bench parser. No text repeats within a cycle, so unlike
// BenchmarkParseRecord it measures a parse of text the parser has not
// just seen.
func BenchmarkParseStream(b *testing.B) {
	setupBench(b)
	streamSetup.Do(func() {
		seen := make(map[string]bool)
		for _, d := range synth.Generate(synth.Config{N: 4096, Seed: 403, BrandFraction: 0.02}) {
			text := d.Render().Text
			if seen[text] {
				panic("BenchmarkParseStream: a record repeats within the cycle")
			}
			seen[text] = true
			streamTexts = append(streamTexts, text)
		}
	})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchParser.Parse(streamTexts[i%len(streamTexts)])
	}
}

func BenchmarkTrainBlockCRF100(b *testing.B) {
	setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TrainParser(benchCorpus[:100], benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synth.Generate(synth.Config{N: 100, Seed: int64(i + 1)})
	}
}

// ---- Paper artifact benches ----

func BenchmarkSec23Baselines(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Sec23(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DeftCoverage, "deft-coverage")
		b.ReportMetric(res.RubyCoverage, "ruby-coverage")
		b.ReportMetric(res.DriftSuccess, "drift-success")
		b.ReportMetric(res.GenericRuleRegistrant, "generic-registrant")
	}
}

func BenchmarkTable1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figures23(o)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Statistical) - 1
		b.ReportMetric(res.Statistical[last].LineMean, "stat-lineerr")
		b.ReportMetric(res.RuleBased[last].LineMean, "rule-lineerr")
	}
}

func BenchmarkFigure3(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Figures23(o)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Statistical) - 1
		b.ReportMetric(res.Statistical[last].DocMean, "stat-docerr")
		b.ReportMetric(res.RuleBased[last].DocMean, "rule-docerr")
	}
}

func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.StatTLDsWithErrors), "stat-tlds-err")
		b.ReportMetric(float64(res.RuleTLDsWithErrors), "rule-tlds-err")
		b.ReportMetric(float64(res.AfterAdaptErrors), "post-adapt-errs")
	}
}

// benchSurvey memoizes the parsed survey for the Table 3-9 benches, which
// then measure aggregation speed over the parsed facts.
var (
	surveyOnce sync.Once
	surveyData *survey.Survey
)

func surveyFacts(b *testing.B) *survey.Survey {
	b.Helper()
	setupBench(b)
	surveyOnce.Do(func() {
		domains := synth.Generate(synth.Config{N: 2500, Seed: 402, BrandFraction: 0.02})
		facts := make([]survey.Facts, 0, len(domains))
		for _, d := range domains {
			pr := benchParser.Parse(d.Render().Text)
			facts = append(facts, survey.FactsFrom(pr, d.Blacklisted))
		}
		surveyData = survey.New(facts)
	})
	return surveyData
}

func BenchmarkTable3(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, _ := s.Table3()
		if all[0].Key != "United States" {
			b.Fatalf("top country %q", all[0].Key)
		}
		b.ReportMetric(all[0].Pct, "us-pct")
	}
}

func BenchmarkTable4(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	brands := experiments.BrandNames()
	for i := 0; i < b.N; i++ {
		rows := s.Table4(brands)
		b.ReportMetric(float64(len(rows)), "brands-seen")
	}
}

func BenchmarkTable5(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, _ := s.Table5()
		b.ReportMetric(all[0].Pct, "top-registrar-pct")
	}
}

func BenchmarkTable6(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table6()
		if len(rows) > 0 {
			b.ReportMetric(rows[0].Pct, "top-pct")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table7()
		if len(rows) > 0 {
			b.ReportMetric(rows[0].Pct, "top-svc-pct")
		}
	}
}

func BenchmarkTable8(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Table8()
	}
}

func BenchmarkTable9(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Table9()
	}
}

func BenchmarkFigure4(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := s.Figure4a()
		mixes := s.Figure4b(1995)
		if len(hist) == 0 || len(mixes) == 0 {
			b.Fatal("empty figure data")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	s := surveyFacts(b)
	b.ResetTimer()
	regs := []string{"eNom", "HiChina", "GMO", "Melbourne"}
	for i := 0; i < b.N; i++ {
		mixes := s.Figure5(regs)
		if len(mixes) != 4 {
			b.Fatal("missing registrar mixes")
		}
	}
}

func BenchmarkCrawl(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunCrawl(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Coverage, "coverage")
		b.ReportMetric(res.FailureRate, "failrate")
	}
}

// ---- Ablations (DESIGN.md §5) ----

// ablationError trains with the given configuration and reports held-out
// line error, the metric the design choices trade against.
func ablationError(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	setupBench(b)
	train := benchCorpus[:150]
	test := benchCorpus[300:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Train.LBFGS.MaxIterations = 40
		mutate(&cfg)
		p, _, err := core.Train(train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err := eval.EvalBlocks(p, test)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.LineErrorRate(), "lineerr")
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	ablationError(b, func(cfg *core.Config) {})
}

func BenchmarkAblationNoTitleValue(b *testing.B) {
	ablationError(b, func(cfg *core.Config) { cfg.Tokenize.DisableTitleValue = true })
}

func BenchmarkAblationNoLayoutMarkers(b *testing.B) {
	ablationError(b, func(cfg *core.Config) { cfg.Tokenize.DisableLayout = true })
}

func BenchmarkAblationNoWordClasses(b *testing.B) {
	ablationError(b, func(cfg *core.Config) { cfg.Tokenize.DisableClasses = true })
}

func BenchmarkAblationNoTransObs(b *testing.B) {
	// Label-bigram-only transitions: shrink the feature space by gating
	// every observation out of the transition block.
	setupBench(b)
	train := benchCorpus[:150]
	test := benchCorpus[300:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := train
		tok := make([][]tokenize.Line, len(recs))
		for j, rec := range recs {
			tok[j] = tokenize.Tokenize(rec.Text, tokenize.Options{})
		}
		dict := tokenize.BuildDictionary(tok, 2)
		m := crf.New(dict, crf.Config{NumStates: labels.NumBlocks, DisableTransObs: true, L2: 1})
		insts := make([]crf.Instance, len(recs))
		for j := range recs {
			inst := m.MapLines(tok[j])
			inst.Labels = make([]int, len(recs[j].Lines))
			for k, ln := range recs[j].Lines {
				inst.Labels[k] = int(ln.Block)
			}
			insts[j] = inst
		}
		if _, err := m.Train(insts, crf.TrainConfig{}); err != nil {
			b.Fatal(err)
		}
		var errCount, lines int
		for _, rec := range test {
			inst := m.MapLines(tokenize.Tokenize(rec.Text, tokenize.Options{}))
			path, _ := m.Decode(inst)
			for k := range rec.Lines {
				lines++
				if labels.Block(path[k]) != rec.Lines[k].Block {
					errCount++
				}
			}
		}
		b.ReportMetric(float64(errCount)/float64(lines), "lineerr")
	}
}

func BenchmarkAblationSGD(b *testing.B) {
	ablationError(b, func(cfg *core.Config) { cfg.Train.Method = "sgd" })
}

func BenchmarkAblationHighDictionaryTrim(b *testing.B) {
	ablationError(b, func(cfg *core.Config) { cfg.MinCount = 20 })
}

func BenchmarkAblationRuleBaseline(b *testing.B) {
	// The non-statistical baseline at the same training size, for scale.
	setupBench(b)
	train := benchCorpus[:150]
	test := benchCorpus[300:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := rulebased.Build(train, tokenize.Options{})
		m, err := eval.EvalBlocks(p, test)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.LineErrorRate(), "lineerr")
	}
}
