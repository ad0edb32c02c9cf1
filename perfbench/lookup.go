package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/rdap"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tiered"
	"repro/internal/tokenize"
)

// Both lookup workloads are closed loops over loopback HTTP: conns
// client connections, each sending its next request only after the
// previous reply, against serveWorkers parse workers.
const (
	conns        = 2
	serveWorkers = 2
	serveCache   = 4096 // rdapd's -parse-cache default
	checkSample  = 2000 // responses compared against a direct parse
)

// lookupShape is what distinguishes the two lookup workloads.
type lookupShape struct {
	name string
	// perSecond is the fixed number of timed requests per nominal
	// second of --seconds.
	perSecond int
	// hot draws requests from a Zipf over a population several times
	// the serve cache. Otherwise requests walk a seeded permutation of a
	// population four times the cache, over and over: every LRU shard
	// sees a cycle longer than its capacity, so no request hits.
	hot bool
}

var (
	hotShape  = lookupShape{name: "lookup-hot", perSecond: 16000, hot: true}
	coldShape = lookupShape{name: "lookup-cold", perSecond: 6000}
)

const (
	hotPopulation  = 5 * serveCache
	hotZipfS       = 1.1
	hotWarmup      = 4 * serveCache // fills the cache before timing
	coldPopulation = 4 * serveCache // warmed by one full cycle
)

// lookupInputs are the seeded inputs of one lookup run.
type lookupInputs struct {
	domains []*synth.Domain          // the corpus rdap serves
	byName  map[string]*synth.Domain // what rdap serves for each name
	warmup  []string                 // names requested before timing
	timed   []string                 // names requested in the timed phase
	sample  []string                 // names checked after timing
}

func makeLookupInputs(shape lookupShape, p params) *lookupInputs {
	n := shape.perSecond * p.seconds
	in := &lookupInputs{byName: make(map[string]*synth.Domain)}
	rng := rand.New(rand.NewSource(p.seed))
	if shape.hot {
		in.domains = synth.Generate(synth.Config{N: hotPopulation, Seed: p.seed, BrandFraction: 0.02})
		names := in.index()
		rank := rng.Perm(len(names))
		z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(names)-1))
		draw := func(k int) []string {
			out := make([]string, k)
			for i := range out {
				out[i] = names[rank[z.Uint64()]]
			}
			return out
		}
		in.warmup = draw(hotWarmup)
		in.timed = draw(n)
		in.sample = pick(rng, names, checkSample)
		return in
	}
	in.domains = synth.Generate(synth.Config{N: coldPopulation, Seed: p.seed, BrandFraction: 0.02})
	cycle := in.index()
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	in.warmup = cycle
	in.timed = make([]string, n)
	for i := range in.timed {
		in.timed[i] = cycle[i%len(cycle)]
	}
	in.sample = pick(rng, cycle, checkSample)
	return in
}

// index fills byName the way rdap.Server indexes its corpus (a later
// domain with the same name replaces an earlier one) and returns the
// distinct names in order of first appearance.
func (in *lookupInputs) index() []string {
	var names []string
	for _, d := range in.domains {
		name := strings.ToLower(d.Reg.Domain)
		if _, dup := in.byName[name]; !dup {
			names = append(names, name)
		}
		in.byName[name] = d
	}
	return names
}

func pick(rng *rand.Rand, from []string, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = from[rng.Intn(len(from))]
	}
	return out
}

// lookupStack is the rdapd -tiered serving stack: rdap.Server over
// serve.Server over tiered.Router.Bind(core.Parser.Parse).
type lookupStack struct {
	parser  *core.Parser
	train   []*labels.LabeledRecord
	router  *tiered.Router
	ps      *serve.Server
	srv     *rdap.Server
	base    string
	l1Texts *textLog // texts that reached L1, when traced
}

// buildLookup wires the stack exactly as rdapd -tiered does; with a
// tracer, spans wrap the rdap.ParseBackend, the func given to
// SetParseFunc and the L1 func given to Bind.
func buildLookup(p params, in *lookupInputs, tr *tracer) (*lookupStack, error) {
	parser, trecs, err := trainParser()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := rdap.NewServer(in.domains)
	srv.Instrument(reg)
	router := tiered.NewFromRecords(trecs, core.DefaultConfig().Tokenize, tiered.Options{Metrics: reg})
	parser.Instrument(reg)
	ps := serve.New(parser, serve.Options{Workers: serveWorkers, CacheCapacity: serveCache, Metrics: reg})
	st := &lookupStack{parser: parser, train: trecs, router: router, ps: ps, srv: srv}
	if tr == nil {
		ps.SetParseFunc(router.Bind(parser.Parse))
		srv.EnableParsed(ps, in.domains)
	} else {
		st.l1Texts = &textLog{}
		l1 := func(text string) *core.ParsedRecord {
			id := tr.beginClaim(layerCore, layerTiered, text)
			defer tr.end(id, "")
			st.l1Texts.add(text)
			return parser.Parse(text)
		}
		bound := router.Bind(l1)
		ps.SetParseFunc(func(text string) *core.ParsedRecord {
			id := tr.beginClaim(layerTiered, layerServe, text)
			tr.offer(id, text)
			defer tr.end(id, text)
			return bound(text)
		})
		srv.EnableParsedBackend(tracedBackend{ps: ps, tr: tr}, in.domains)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		ps.Close()
		return nil, err
	}
	st.base = "http://" + addr
	return st, nil
}

func (st *lookupStack) close() {
	st.srv.Close()
	st.ps.Close()
}

// tracedBackend is the rdap.ParseBackend EnableParsed would install,
// with a span around each call.
type tracedBackend struct {
	ps *serve.Server
	tr *tracer
}

func (b tracedBackend) ParseDomain(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	id := b.tr.beginClaim(layerServe, layerRDAP, domain)
	b.tr.offer(id, text)
	defer b.tr.end(id, text)
	return b.ps.Parse(ctx, text)
}

// textLog collects the texts the L1 parser saw, for the tokenize probe.
type textLog struct {
	mu    sync.Mutex
	texts []string
}

func (l *textLog) add(s string) {
	l.mu.Lock()
	l.texts = append(l.texts, s)
	l.mu.Unlock()
}

func (l *textLog) reset() {
	l.mu.Lock()
	l.texts = nil
	l.mu.Unlock()
}

// client is a pool of conns keep-alive connections to the stack.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get fetches url and returns the body of a 200 reply.
func (c *client) get(url string, body *bytes.Buffer) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if body != nil {
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// loopResult is one closed-loop pass.
type loopResult struct {
	lat     []float64 // ms per successful request
	failed  int64
	elapsed time.Duration
	bytes   int64
}

// closedLoop sends every url once, in order, across conns connections
// that each wait for a reply before sending again.
func closedLoop(c *client, urls, names []string, tr *tracer) loopResult {
	lat := make([]time.Duration, len(urls))
	var next, failed, nbytes atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(urls) {
					return
				}
				var id int32
				if tr != nil {
					id = tr.begin(layerRDAP, -1)
					tr.offer(id, names[i])
				}
				t0 := time.Now()
				resp, err := c.hc.Get(urls[i])
				if err == nil {
					n, cerr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					nbytes.Add(n)
					if cerr != nil || resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				d := time.Since(t0)
				if tr != nil {
					tr.end(id, names[i])
				}
				if err != nil {
					failed.Add(1)
					lat[i] = -1
					continue
				}
				lat[i] = d
			}
		}()
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start), failed: failed.Load(), bytes: nbytes.Load()}
	for _, d := range lat {
		if d >= 0 {
			res.lat = append(res.lat, float64(d)/1e6)
		}
	}
	return res
}

func urlsFor(base string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = base + "/parsed/" + n
	}
	return out
}

// lookupPass is everything one measured pass over a stack yields.
type lookupPass struct {
	loop      loopResult
	allocKB   float64 // per timed request
	heapMB    float64
	serve     serve.Stats
	tier      tiered.Status
	attempted int
}

// measureLookup warms the stack, then runs the timed phase.
func measureLookup(st *lookupStack, in *lookupInputs, tr *tracer) (lookupPass, error) {
	c := newClient()
	defer c.close()
	warm := closedLoop(c, urlsFor(st.base, in.warmup), in.warmup, nil)
	if warm.failed > 0 {
		return lookupPass{}, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, len(in.warmup))
	}
	urls := urlsFor(st.base, in.timed)
	before := st.ps.Stats()
	tierBefore := st.router.Status()
	if tr != nil {
		tr.reset()
		st.l1Texts.reset()
	}
	settle()
	a0 := totalAlloc()
	loop := closedLoop(c, urls, in.timed, tr)
	a1 := totalAlloc()
	pass := lookupPass{
		loop:      loop,
		allocKB:   float64(a1-a0) / 1024 / float64(len(urls)),
		serve:     diffServe(st.ps.Stats(), before),
		tier:      diffTier(st.router.Status(), tierBefore),
		attempted: len(urls),
	}
	pass.heapMB = liveHeapMB()
	return pass, nil
}

// rate is successful lookups per second over the whole timed phase,
// which spans many GC cycles, so each run pays for the same collections.
func (p lookupPass) rate() float64 { return float64(len(p.loop.lat)) / p.loop.elapsed.Seconds() }

func diffServe(a, b serve.Stats) serve.Stats {
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Coalesced -= b.Coalesced
	a.Shed -= b.Shed
	a.Parsed -= b.Parsed
	return a
}

func diffTier(a, b tiered.Status) tiered.Status {
	a.L0Hits -= b.L0Hits
	a.L0Demoted -= b.L0Demoted
	a.L1Fallbacks -= b.L1Fallbacks
	a.Demotions -= b.Demotions
	return a
}

// checkLookup fetches the check sample over HTTP. Each reply must equal
// the JSON rdap would write for a direct call to the bound parse
// function on the same text; it returns the share of the sample whose
// registrant country, registrar and creation year match the synthetic
// ground truth.
//
// The tiered router may answer a text from either tier: a template the
// shadow sampler distrusts is served by the CRF, and a reply cached
// before a demotion keeps its template answer. So a reply that differs
// from the direct call still passes when it is exactly the template
// answer or exactly the CRF answer for that text, and the two tiers
// disagree on it.
func checkLookup(st *lookupStack, in *lookupInputs, out *outcome) float64 {
	c := newClient()
	defer c.close()
	bound := st.router.Bind(st.parser.Parse)
	l0 := tiered.NewFromRecords(st.train, core.DefaultConfig().Tokenize,
		tiered.Options{ShadowEvery: math.MaxInt}).Bind(st.parser.Parse)
	var body bytes.Buffer
	good := 0
	for _, name := range in.sample {
		d := in.byName[name]
		if err := c.get(st.base+"/parsed/"+name, &body); err != nil {
			out.check(false, "GET /parsed/%s: %v", name, err)
			continue
		}
		text := d.Render().Text
		got := body.Bytes()
		want := encodeParsed(name, bound(text))
		ok := bytes.Equal(got, want)
		if !ok {
			a, b := encodeParsed(name, l0(text)), encodeParsed(name, st.parser.Parse(text))
			ok = !bytes.Equal(a, b) && (bytes.Equal(got, a) || bytes.Equal(got, b))
		}
		out.check(ok, "/parsed/%s differs from a direct parse", name)
		var pd rdap.ParsedDomain
		if err := json.Unmarshal(got, &pd); err != nil {
			out.check(false, "decode /parsed/%s: %v", name, err)
			continue
		}
		country := ""
		if pd.Registrant != nil {
			country = pd.Registrant.Country
		}
		created := ""
		for _, e := range pd.Events {
			if e.EventAction == "registration" {
				created = e.EventDate
			}
		}
		if fieldsMatch(d, pd.Registrar, country, created) {
			good++
		}
	}
	return float64(good) / float64(len(in.sample))
}

// encodeParsed is the body rdap writes for a parse of name.
func encodeParsed(name string, pr *core.ParsedRecord) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(rdap.ParsedFromRecord(name, pr))
	return b.Bytes()
}

// fieldsMatch compares a parse's registrar, registrant country and
// creation year with the domain's ground truth, after the same
// normalisation the consistency engine applies.
func fieldsMatch(d *synth.Domain, registrar, country, created string) bool {
	if norm.Registrar(registrar) != norm.Registrar(d.Reg.RegistrarName) {
		return false
	}
	if norm.CountryKey(country) != norm.CountryKey(d.Reg.Registrant.CountryName) {
		return false
	}
	t, ok := norm.ParseDate(created)
	return ok && t.Year() == d.Reg.Created.Year()
}

// runLookup is the lookup-hot and lookup-cold workload.
func runLookup(p params, shape lookupShape, out *outcome) (map[string]metric, error) {
	in := makeLookupInputs(shape, p)
	st, setupS, err := repeatSetup(func() (*lookupStack, error) { return buildLookup(p, in, nil) },
		(*lookupStack).close)
	if err != nil {
		return nil, err
	}
	a, err := measureLookup(st, in, nil)
	if err != nil {
		st.close()
		return nil, err
	}
	out.ops(int64(a.attempted), a.loop.failed)
	if !shape.hot {
		out.check(a.serve.Hits == 0, "%s: %d cache hits, want none", shape.name, a.serve.Hits)
	}
	acc := checkLookup(st, in, out)
	st.close()
	logf("%s: %d requests in %s, %d failed; serve %s; tiered l0=%d demoted=%d fallbacks=%d demotions=%d",
		shape.name, a.attempted, a.loop.elapsed.Round(time.Millisecond), a.loop.failed, a.serve,
		a.tier.L0Hits, a.tier.L0Demoted, a.tier.L1Fallbacks, a.tier.Demotions)
	logf("%s: tail_ms is p%g over %d samples (%d beyond it)", shape.name,
		100*tailQ, len(a.loop.lat), int(float64(len(a.loop.lat))*(1-tailQ)))

	if !p.trace {
		return map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_s":       {a.rate(), "1/s"},
			"p50_ms":          {median(a.loop.lat), "ms"},
			"tail_ms":         {quantile(a.loop.lat, tailQ), "ms"},
			"alloc_kb_per_op": {a.allocKB, "KiB"},
			"heap_mb":         {a.heapMB, "MiB"},
			"field_acc":       {acc, "ratio"},
		}, nil
	}

	// Traced pass on a fresh stack: the per-layer figures, and a repeat
	// of the untraced pass's exact counts.
	tr := newTracer()
	stB, err := buildLookup(p, in, tr)
	if err != nil {
		return nil, err
	}
	b, err := measureLookup(stB, in, tr)
	stB.close()
	if err != nil {
		return nil, err
	}
	repeatLookupCounts(a, b, out)
	return lookupLayers(a, b, tr, stB), nil
}

// repeatLookupCounts holds the traced pass to the untraced pass's exact
// counts, within a slack: two connections may race for one uncached
// text (a coalesced request), and may swap two adjacent requests, which
// can change which entry an LRU shard evicts. So hits, misses and
// template misses may differ by the coalesced counts plus one per
// thousand requests; the difference is logged. Which tier serves a
// template-matched text is not held: the router's shadow sampler ticks
// one counter shared by both serve workers, so the texts it samples,
// and when a template is demoted, follow the workers' interleaving.
func repeatLookupCounts(a, b lookupPass, out *outcome) {
	slack := a.serve.Coalesced + b.serve.Coalesced + uint64(a.attempted)/1000
	if a.serve.Hits != b.serve.Hits || a.tier.L1Fallbacks != b.tier.L1Fallbacks {
		logf("serve hits %d vs %d, template misses %d vs %d (slack %d)",
			a.serve.Hits, b.serve.Hits, a.tier.L1Fallbacks, b.tier.L1Fallbacks, slack)
	}
	out.check(absDiff(a.serve.Hits, b.serve.Hits) <= slack && absDiff(a.serve.Misses, b.serve.Misses) <= slack,
		"serve hits/misses %d/%d vs %d/%d (coalesced %d, %d)",
		a.serve.Hits, a.serve.Misses, b.serve.Hits, b.serve.Misses, a.serve.Coalesced, b.serve.Coalesced)
	out.check(absDiff(a.tier.L1Fallbacks, b.tier.L1Fallbacks) <= slack,
		"tiered template misses %d vs %d", a.tier.L1Fallbacks, b.tier.L1Fallbacks)
	if a.tier.L0Hits != b.tier.L0Hits {
		logf("tiered: L0/L1 served %d/%d untraced vs %d/%d traced (shadow sampling follows worker interleaving)",
			a.tier.L0Hits, l1Serves(a), b.tier.L0Hits, l1Serves(b))
	}
}

// l1Serves counts the parses the CRF answered: template misses, demoted
// templates, and shadow samples that overruled the template.
func l1Serves(p lookupPass) uint64 { return p.serve.Parsed - p.tier.L0Hits }

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// lookupLayers derives the per-layer metrics: counts from the untraced
// pass a, times from the traced pass b.
func lookupLayers(a, b lookupPass, tr *tracer, stB *lookupStack) map[string]metric {
	ls := tr.analyze()
	core := ls[layerCore]
	tok := tokenizeProbe(stB.l1Texts.texts, stB.parser.Config().Tokenize)
	coreUS := mean(core.dur)
	lookups := float64(len(a.loop.lat))
	m := zeroLayers()
	m.set("rdap.self_us", mean(ls[layerRDAP].self))
	m.set("rdap.resp_bytes", float64(a.loop.bytes)/lookups)
	m.set("serve.hit_ratio", ratio(float64(a.serve.Hits), float64(a.serve.Hits+a.serve.Misses+a.serve.Coalesced)))
	m.set("serve.self_us", mean(ls[layerServe].self))
	m.set("serve.hits", float64(a.serve.Hits))
	m.set("serve.misses", float64(a.serve.Misses))
	m.set("serve.coalesced", float64(a.serve.Coalesced))
	m.set("serve.shed", float64(a.serve.Shed))
	m.set("tiered.l0_ratio", ratio(float64(a.tier.L0Hits), float64(a.serve.Parsed)))
	m.set("tiered.l0_us", ratio(ls[layerTiered].leafDur, float64(ls[layerTiered].leaf)))
	m.set("tiered.self_us", mean(ls[layerTiered].self))
	m.set("tiered.l0", float64(a.tier.L0Hits))
	m.set("tiered.l1", float64(l1Serves(a)))
	m.set("tiered.fallbacks", float64(a.tier.L1Fallbacks))
	m.set("tiered.demotions", float64(a.tier.Demotions))
	m.set("core.parse_us", coreUS)
	m.set("core.parse_tail_us", quantile(core.dur, layerTailQ))
	m.set("core.parses", float64(core.count))
	m.set("core.share", ratio(sum(core.dur), sum(ls[layerRDAP].dur)))
	m.set("tokenize.us_per_rec", tok)
	m.set("tokenize.share", ratio(tok, coreUS))
	m.set("trace.overhead", ratio(a.rate(), b.rate()))
	m.set("trace.accounted", ratio(median(tr.requestSelf(ls))/1e3, median(a.loop.lat)))
	return m
}

// tokenizeProbe times direct tokenize.Tokenize calls, one after another
// on one goroutine, over the texts the CRF parsed. It is computed here,
// not measured inside the parse.
func tokenizeProbe(texts []string, opts tokenize.Options) float64 {
	if len(texts) == 0 {
		return 0
	}
	settle()
	start := time.Now()
	for _, t := range texts {
		tokenize.Tokenize(t, opts)
	}
	return float64(time.Since(start)) / 1e3 / float64(len(texts))
}
