package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
)

// The survey workload ingests a synthetic crawl the way whoissurvey
// -synthetic -store-out does, then runs a fixed list of predicate
// surveys the way whoissurvey -store -where does.
//
// The crawl is cut into ingestShards equal shards, each ingested by its
// own batch job into its own store, and ops_per_s is the median shard
// rate: a shared machine's speed wanders from one second to the next, and a
// median over shards keeps a burst of interference from moving the
// figure. Each shard seals and compresses several segments, so every
// shard does the same kind of work.
const (
	ingestShards    = 5
	ingestPerSecond = 2000 // records ingested per nominal second, all shards
	queryRounds     = 2    // rounds of the predicate list per nominal second
	ingestWarmup    = 1000 // records parsed before timing, outside any store
	accSample       = 2000 // stored records compared with ground truth
	surveyCache     = 1 << 15
	// segmentBytes is scaled down from the store's 64 MiB default so a
	// shard spans about ten segments, as a paper-scale crawl spans
	// thousands; queries then prune and seek sealed, indexed segments.
	segmentBytes = 1 << 20
)

// predicates are the timed surveys: selective registrar, country,
// year-range and conjunctive ones, and one broad one.
var predicates = []string{
	"registrar=NameCheap, Inc.",
	"country=Germany",
	"year=2003..2004",
	"registrar=GoDaddy.com, LLC,country=United States,since=2012",
	"since=1995",
}

// surveyInputs are the seeded inputs of one survey run.
type surveyInputs struct {
	domains []*synth.Domain
	texts   []string
	warmup  []string
	preds   []query.Pred
	sample  []int // indexes into texts
}

func makeSurveyInputs(p params) (*surveyInputs, error) {
	n := ingestPerSecond * p.seconds
	n -= n % ingestShards
	in := &surveyInputs{domains: synth.Generate(synth.Config{N: n, Seed: p.seed, BrandFraction: 0.02})}
	in.texts = make([]string, n)
	for i, d := range in.domains {
		in.texts[i] = d.Render().Text
	}
	for _, d := range synth.Generate(synth.Config{N: ingestWarmup, Seed: p.seed + 1, BrandFraction: 0.02}) {
		in.warmup = append(in.warmup, d.Render().Text)
	}
	for _, s := range predicates {
		pr, err := query.ParsePred(s)
		if err != nil {
			return nil, err
		}
		in.preds = append(in.preds, pr)
	}
	rng := rand.New(rand.NewSource(p.seed))
	for i := 0; i < accSample; i++ {
		in.sample = append(in.sample, rng.Intn(n))
	}
	return in, nil
}

// shard is the index range of shard k.
func (in *surveyInputs) shard(k int) (lo, hi int) {
	m := len(in.texts) / ingestShards
	return k * m, (k + 1) * m
}

// surveyStack is whoissurvey's parser; each batch job puts a fresh
// serve.Server in front of it, as each whoissurvey process does.
type surveyStack struct {
	parser *core.Parser
	reg    *obs.Registry
	tr     *tracer
	batch  *atomic.Int32 // the open batch span, parent of traced parses
}

func buildSurvey(tr *tracer) (*surveyStack, error) {
	parser, _, err := trainParser()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	parser.Instrument(reg)
	st := &surveyStack{parser: parser, reg: reg, tr: tr, batch: new(atomic.Int32)}
	st.batch.Store(-1)
	return st, nil
}

// newServe is whoissurvey's batch driver; with a tracer, a span wraps
// the parse behind ParseBatch.
func (st *surveyStack) newServe() *serve.Server {
	ps := serve.New(st.parser, serve.Options{Workers: serveWorkers, CacheCapacity: surveyCache, Metrics: st.reg})
	if tr := st.tr; tr != nil {
		ps.SetParseFunc(func(text string) *core.ParsedRecord {
			id := tr.begin(layerCore, st.batch.Load())
			defer tr.end(id, "")
			return st.parser.Parse(text)
		})
	}
	return ps
}

// shardResult is one timed shard ingest.
type shardResult struct {
	elapsed    time.Duration
	alloc      uint64
	compressMS float64
	syncMS     float64
	bytes      int64
	segments   int
	records    uint64
	inOrder    bool // the store iterates back exactly the shard's texts
}

// surveyPass is everything one ingest-and-query pass yields.
type surveyPass struct {
	shards     []shardResult
	heapMB     float64
	buildMS    float64
	queryMS    []float64     // every timed survey, in order
	tablesMS   []float64     // table rendering after each timed survey
	stats      []query.Stats // the last shard's store, one per predicate
	engineTabs []string      // tables from Engine.Survey, per predicate
	refTabs    []string      // tables from a sequential fold, per predicate
	facts      []survey.Facts
}

func (p surveyPass) rate() float64 {
	rates := make([]float64, len(p.shards))
	for i, s := range p.shards {
		rates[i] = float64(s.records) / s.elapsed.Seconds()
	}
	return median(rates)
}

func (p surveyPass) total() (sh shardResult) {
	for _, s := range p.shards {
		sh.elapsed += s.elapsed
		sh.alloc += s.alloc
		sh.compressMS += s.compressMS
		sh.syncMS += s.syncMS
		sh.bytes += s.bytes
		sh.segments += s.segments
		sh.records += s.records
	}
	return sh
}

// ingest runs one shard's batch job into a fresh store: ParseBatch, then
// facts and an in-order append per record, then compression of the
// sealed segments and a sync. Only the store comes back open.
func (st *surveyStack) ingest(texts []string, domains []*synth.Domain, dir string) (shardResult, *store.Store, error) {
	var res shardResult
	ps := st.newServe()
	defer ps.Close()
	sto, err := store.Open(dir, store.Options{SegmentBytes: segmentBytes, Metrics: st.reg})
	if err != nil {
		return res, nil, err
	}
	tr := st.tr
	begin := func(layer int, parent int32) int32 {
		if tr == nil {
			return -1
		}
		return tr.begin(layer, parent)
	}
	end := func(id int32) {
		if tr != nil {
			tr.end(id, "")
		}
	}

	settle()
	a0 := totalAlloc()
	start := time.Now()
	root := begin(layerIngest, -1)
	st.batch.Store(begin(layerBatch, root))
	prs, err := ps.ParseBatch(context.Background(), texts)
	end(st.batch.Load())
	if err != nil {
		sto.Close()
		return res, nil, fmt.Errorf("parse batch: %w", err)
	}
	for i, pr := range prs {
		d := domains[i]
		id := begin(layerFacts, root)
		f := survey.FactsFrom(pr, d.Blacklisted)
		if f.Domain == "" {
			f.Domain = d.Reg.Domain
		}
		end(id)
		id = begin(layerAppend, root)
		err := sto.Append(&store.Record{Domain: f.Domain, Text: texts[i], Parsed: pr, Facts: f})
		end(id)
		if err != nil {
			sto.Close()
			return res, nil, err
		}
	}
	t := time.Now()
	id := begin(layerCompress, root)
	_, err = sto.CompressSealed()
	end(id)
	res.compressMS = float64(time.Since(t)) / 1e6
	if err == nil {
		t = time.Now()
		id = begin(layerSync, root)
		err = sto.Sync()
		end(id)
		res.syncMS = float64(time.Since(t)) / 1e6
	}
	end(root)
	res.elapsed = time.Since(start)
	res.alloc = totalAlloc() - a0
	if err != nil {
		sto.Close()
		return res, nil, err
	}
	res.bytes, res.segments, res.records = sto.Bytes(), sto.Segments(), sto.Len()
	return res, sto, nil
}

// measure ingests every shard under dir, then runs rounds timed rounds
// of the predicate list over the last shard's store. It also reads
// every store back for the correctness checks.
func (st *surveyStack) measure(in *surveyInputs, rounds int, dir string) (surveyPass, error) {
	var pass surveyPass
	warm := st.newServe()
	_, err := warm.ParseBatch(context.Background(), in.warmup)
	warm.Close()
	if err != nil {
		return pass, fmt.Errorf("warm-up parse: %w", err)
	}
	if st.tr != nil {
		st.tr.reset()
	}
	var last *store.Store
	var lastFacts []survey.Facts
	for k := 0; k < ingestShards; k++ {
		lo, hi := in.shard(k)
		res, sto, err := st.ingest(in.texts[lo:hi], in.domains[lo:hi], filepath.Join(dir, fmt.Sprint("shard-", k)))
		if err != nil {
			return pass, err
		}
		var texts []string
		facts := pass.facts
		it := sto.Iter()
		for it.Next() {
			rec := it.Record()
			facts = append(facts, rec.Facts)
			texts = append(texts, rec.Text)
		}
		err = it.Err()
		it.Close()
		if err != nil {
			sto.Close()
			return pass, err
		}
		res.inOrder = len(texts) == hi-lo
		for i := 0; res.inOrder && i < len(texts); i++ {
			res.inOrder = texts[i] == in.texts[lo+i]
		}
		lastFacts = facts[len(pass.facts):]
		pass.facts = facts
		pass.shards = append(pass.shards, res)
		if k < ingestShards-1 {
			if err := sto.Close(); err != nil {
				return pass, err
			}
		} else {
			last = sto
		}
	}
	defer last.Close()

	e := query.New(last, query.Options{Workers: serveWorkers})
	t := time.Now()
	if _, err := e.BuildAll(); err != nil {
		return pass, fmt.Errorf("build sidecars: %w", err)
	}
	pass.buildMS = float64(time.Since(t)) / 1e6
	// One untimed round loads every sidecar into the engine's cache and
	// records each predicate's plan statistics and tables, next to the
	// tables of a sequential fold over the same records.
	for _, pr := range in.preds {
		sv, stats, err := e.Survey(pr)
		if err != nil {
			return pass, err
		}
		pass.stats = append(pass.stats, stats)
		pass.engineTabs = append(pass.engineTabs, tables(sv))
		ref := survey.New(nil)
		for i := range lastFacts {
			if pr.Match(&lastFacts[i]) {
				ref.Add(lastFacts[i])
			}
		}
		pass.refTabs = append(pass.refTabs, tables(ref))
	}
	settle()
	for r := 0; r < rounds; r++ {
		for _, pr := range in.preds {
			t := time.Now()
			sv, _, err := e.Survey(pr)
			if err != nil {
				return pass, err
			}
			pass.queryMS = append(pass.queryMS, float64(time.Since(t))/1e6)
			t = time.Now()
			tables(sv)
			pass.tablesMS = append(pass.tablesMS, float64(time.Since(t))/1e6)
		}
	}
	pass.heapMB = liveHeapMB()
	return pass, nil
}

// tables renders every survey table and figure whoissurvey prints.
func tables(s *survey.Survey) string {
	var b strings.Builder
	t3all, t3new := s.Table3()
	t5all, t5new := s.Table5()
	for _, rows := range [][]survey.Row{t3all, t3new, t5all, t5new, s.Table6(), s.Table7(), s.Table8(), s.Table9()} {
		b.WriteString(survey.RenderRows("", rows))
	}
	b.WriteString(survey.RenderHistogram("", s.Figure4a()))
	b.WriteString(survey.RenderMixes("", s.Figure4b(1995), survey.Figure4bLabels()))
	b.WriteString(survey.RenderRegistrarMixes("", s.Figure5([]string{"eNom", "HiChina", "GMO", "Melbourne"})))
	return b.String()
}

// checkSurvey runs the correctness checks on a finished pass and
// returns the field accuracy of the stored sample.
func checkSurvey(pass surveyPass, in *surveyInputs, out *outcome) float64 {
	for k, s := range pass.shards {
		lo, hi := in.shard(k)
		out.check(s.records == uint64(hi-lo), "shard %d: store holds %d records, ingested %d", k, s.records, hi-lo)
		out.check(s.inOrder, "shard %d: store records are not the input in input order", k)
	}
	for i := range in.preds {
		out.check(pass.stats[i].Matched > 0, "predicate %q matches nothing", predicates[i])
		out.check(pass.engineTabs[i] == pass.refTabs[i], "Engine.Survey(%q) differs from a sequential fold", predicates[i])
	}
	if len(pass.facts) != len(in.texts) {
		return 0
	}
	good := 0
	for _, i := range in.sample {
		f, d := pass.facts[i], in.domains[i]
		if norm.Registrar(f.Registrar) == norm.Registrar(d.Reg.RegistrarName) &&
			norm.CountryKey(f.Country) == norm.CountryKey(d.Reg.Registrant.CountryName) &&
			f.CreatedYear == d.Reg.Created.Year() {
			good++
		}
	}
	return float64(good) / float64(len(in.sample))
}

// runSurvey is the survey workload.
func runSurvey(p params, out *outcome) (map[string]metric, error) {
	in, err := makeSurveyInputs(p)
	if err != nil {
		return nil, err
	}
	st, setupS, err := repeatSetup(func() (*surveyStack, error) { return buildSurvey(nil) },
		func(*surveyStack) {})
	if err != nil {
		return nil, err
	}
	a, err := st.measure(in, queryRounds*p.seconds, filepath.Join(p.workDir, "untraced"))
	if err != nil {
		return nil, err
	}
	out.ops(int64(len(in.texts)+len(a.queryMS)), 0)
	acc := checkSurvey(a, in, out)
	a.facts = nil
	tot := a.total()
	logf("survey: %d shards, %d records in %s, %d segments, %d bytes; %d surveys; tail_ms is p%g over %d samples (%d beyond it)",
		len(a.shards), tot.records, tot.elapsed.Round(time.Millisecond), tot.segments, tot.bytes, len(a.queryMS),
		100*queryTailQ, len(a.queryMS), int(float64(len(a.queryMS))*(1-queryTailQ)))
	for i, s := range a.stats {
		logf("survey: %q: %s", predicates[i], s)
	}

	if !p.trace {
		return map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_s":       {a.rate(), "1/s"},
			"p50_ms":          {median(a.queryMS), "ms"},
			"tail_ms":         {quantile(a.queryMS, queryTailQ), "ms"},
			"alloc_kb_per_op": {float64(tot.alloc) / 1024 / float64(tot.records), "KiB"},
			"heap_mb":         {a.heapMB, "MiB"},
			"field_acc":       {acc, "ratio"},
		}, nil
	}

	// Traced pass with a freshly trained parser: the per-layer figures,
	// and a repeat of the untraced pass's exact counts.
	tr := newTracer()
	stB, err := buildSurvey(tr)
	if err != nil {
		return nil, err
	}
	b, err := stB.measure(in, 0, filepath.Join(p.workDir, "traced"))
	if err != nil {
		return nil, err
	}
	repeatSurveyCounts(a, b, out)
	return surveyLayers(a, b, tr, in, stB), nil
}

// repeatSurveyCounts holds the traced pass to the untraced pass's exact
// store and query counts.
func repeatSurveyCounts(a, b surveyPass, out *outcome) {
	ta, tb := a.total(), b.total()
	out.check(ta.bytes == tb.bytes && ta.records == tb.records && ta.segments == tb.segments,
		"store %d bytes/%d records/%d segments vs %d/%d/%d",
		ta.bytes, ta.records, ta.segments, tb.bytes, tb.records, tb.segments)
	for i := range a.stats {
		sa, sb := a.stats[i], b.stats[i]
		out.check(sa.RecordsRead == sb.RecordsRead && sa.Matched == sb.Matched,
			"%q read/matched %d/%d vs %d/%d", predicates[i], sa.RecordsRead, sa.Matched, sb.RecordsRead, sb.Matched)
	}
}

// surveyLayers derives the per-layer metrics: counts and untraced times
// from pass a, span times from the traced pass b.
func surveyLayers(a, b surveyPass, tr *tracer, in *surveyInputs, stB *surveyStack) map[string]metric {
	ls := tr.analyze()
	core := ls[layerCore]
	coreUS := mean(core.dur)
	probe := in.texts[:min(len(in.texts), 4000)]
	tok := tokenizeProbe(probe, stB.parser.Config().Tokenize)
	var segs, pruned int
	var read, matched uint64
	for _, s := range a.stats {
		segs += s.Segments
		pruned += s.Pruned
		read += s.RecordsRead
		matched += s.Matched
	}
	ta := a.total()
	shards := float64(len(a.shards))
	// Parallel parses overlap, so the core layer's part of an ingest is
	// the part of the batch span its spans cover, not their sum.
	batchSelf := sum(ls[layerBatch].self)
	coreBusy := sum(ls[layerBatch].dur) - batchSelf
	accounted := sum(ls[layerIngest].self) + batchSelf + coreBusy +
		sum(ls[layerFacts].dur) + sum(ls[layerAppend].dur) + sum(ls[layerCompress].dur) + sum(ls[layerSync].dur)

	m := zeroLayers()
	m.set("core.parse_us", coreUS)
	m.set("core.parse_tail_us", quantile(core.dur, layerTailQ))
	m.set("core.parses", float64(core.count))
	m.set("core.share", ratio(coreBusy, sum(ls[layerIngest].dur)))
	m.set("tokenize.us_per_rec", tok)
	m.set("tokenize.share", ratio(tok, coreUS))
	m.set("survey.facts_us", mean(ls[layerFacts].dur))
	m.set("survey.tables_ms", mean(a.tablesMS))
	m.set("store.append_us", mean(ls[layerAppend].dur))
	m.set("store.sync_ms", ta.syncMS/shards)
	m.set("store.compress_ms", ta.compressMS/shards)
	m.set("store.bytes_per_rec", ratio(float64(ta.bytes), float64(ta.records)))
	m.set("store.segments", float64(ta.segments))
	m.set("store.records", float64(ta.records))
	m.set("store.bytes", float64(ta.bytes))
	m.set("query.build_ms", a.buildMS)
	m.set("query.pruned_ratio", ratio(float64(pruned), float64(segs)))
	m.set("query.read_per_match", ratio(float64(read), float64(matched)))
	m.set("query.survey_ms", mean(a.queryMS))
	m.set("query.records_read", float64(read))
	m.set("query.matched", float64(matched))
	m.set("trace.overhead", ratio(a.rate(), b.rate()))
	m.set("trace.accounted", ratio(accounted, float64(ta.elapsed)/1e3))
	return m
}
