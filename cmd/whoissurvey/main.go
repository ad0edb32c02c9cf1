// Command whoissurvey parses a corpus of raw WHOIS records with a trained
// model and prints the §6 survey tables (registrant countries, registrars,
// privacy protection, and per-year trends).
//
// Input is a crawl output file from whoiscrawl (-in records.txt), a freshly
// generated synthetic corpus (-synthetic N), or a persisted record store
// directory written by whoiscrawl -store / a previous -store-out run
// (-store dir). The store path streams: facts fold into the survey
// aggregates one record at a time, so surveying a 102M-record store never
// materializes the corpus in memory.
//
// A -store survey accepts -where to restrict it to a predicate
// (registrar=X, country=Y, year=N, since=N, comma-conjoined). Predicated
// surveys run through internal/query: each sealed segment's facts
// sidecar answers the predicate and feeds the tables without a record
// being decoded, and segments whose sidecar rules the predicate out are
// skipped — with byte-identical tables to the full scan (the
// query-differential CI gate holds it to that).
//
// Usage:
//
//	whoissurvey -model parser.model -in records.txt [-dbl dbl.txt]
//	whoissurvey -model parser.model -synthetic 30000 [-store-out dir]
//	whoissurvey -store dir
//	whoissurvey -store dir -where 'registrar=GoDaddy.com, LLC,since=2014'
//	whoissurvey -store dir -consistency -rdap-synthetic 30000 -seed 2
//	whoissurvey -store dir -consistency -rdap http://127.0.0.1:8080 -where 'year=2012..2014'
//
// -consistency switches a -store run from surveying to cross-protocol
// auditing: every stored WHOIS parse is compared field-by-field against
// the domain's RDAP answer (live from -rdap URL, or regenerated ground
// truth with -rdap-synthetic N) and the per-field / per-registrar
// disagreement tables are printed. -where restricts the audited cohort
// through the same pruned query engine as predicated surveys.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rdap"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whoissurvey: ")
	var df daemon.Flags
	df.RegisterModel(flag.CommandLine, "parser.model", "trained model file")
	in := flag.String("in", "", "records file from whoiscrawl")
	dblFile := flag.String("dbl", "", "optional blacklist file (one domain per line)")
	synthetic := flag.Int("synthetic", 0, "generate and survey N synthetic records instead of -in")
	seed := flag.Int64("seed", 2, "seed for -synthetic")
	flag.IntVar(&df.Workers, "workers", 0, "parse worker pool size (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "stream the survey from this record store directory (no parsing; -model unused)")
	where := flag.String("where", "", "with -store: survey only records matching this predicate (registrar=X,country=Y,year=N,since=N) via the pruned query engine")
	storeOut := flag.String("store-out", "", "also persist every parsed record into this store directory")
	metricsAddr := flag.String("metrics-addr", "", "serve the metrics registry as JSON on this address while the survey runs (empty disables)")
	flag.BoolVar(&df.Tiered, "tiered", false,
		"parse via the L0 compiled-template fast path with CRF fallback (tiered.* in the final stats dump)")
	consistencyMode := flag.Bool("consistency", false,
		"with -store: audit stored WHOIS parses against RDAP instead of surveying (needs -rdap or -rdap-synthetic)")
	rdapURL := flag.String("rdap", "", "with -consistency: fetch RDAP answers from this base URL")
	rdapSynthetic := flag.Int("rdap-synthetic", 0,
		"with -consistency: answer RDAP from the regenerated synthetic population of this size (pairs with -seed)")
	flag.Parse()

	if *consistencyMode && *storeDir == "" {
		log.Fatal("-consistency needs -store (the WHOIS side comes from a persisted record store)")
	}
	if *where != "" && *storeDir == "" {
		log.Fatal("-where needs -store (predicates run against a persisted record store)")
	}

	// One registry for the whole run: CRF decode latency, parse-serving
	// cache behaviour, store appends, and batch progress all land here.
	// -metrics-addr exports it live (useful on long crawls); the final
	// snapshot is dumped to stderr either way. A -store run reads parsed
	// records back and needs no model.
	reg := obs.NewRegistry()
	mode := daemon.ServeModel
	if *storeDir != "" {
		mode = daemon.NoModel
	}
	// The shared parse-serving layer is the batch driver: blocking
	// admission gives backpressure against the bounded worker pool, and
	// the cache/coalescing path deduplicates repeated record texts
	// (registrars reuse templates, so real crawls repeat themselves).
	// With -tiered, registrars whose format the template tier knows are
	// parsed by L0 at template speed; the CRF only runs on the tail.
	df.Cache = 1 << 15
	stk, err := daemon.Build(daemon.Config{Flags: df, Mode: mode, Seed: *seed, Metrics: reg, DumpStats: true})
	if err != nil {
		log.Fatal(err)
	}
	defer stk.Close()
	if *metricsAddr != "" {
		maddr, err := stk.Serve(*metricsAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics at http://%s/", maddr)
	}

	s := survey.New(nil)
	showBlacklist := false

	if *storeDir != "" {
		if *consistencyMode {
			var src consistency.RDAPSource
			switch {
			case *rdapURL != "" && *rdapSynthetic > 0:
				log.Fatal("-rdap and -rdap-synthetic are mutually exclusive")
			case *rdapURL != "":
				src = consistency.ClientSource(&rdap.Client{BaseURL: strings.TrimRight(*rdapURL, "/")})
			case *rdapSynthetic > 0:
				src = consistency.SyntheticSource(*rdapSynthetic, *seed)
			default:
				log.Fatal("-consistency needs an RDAP side: -rdap URL or -rdap-synthetic N")
			}
			if err := runConsistency(os.Stdout, *storeDir, *where, src, reg); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *where != "" {
			if err := surveyWhere(*storeDir, *where, reg); err != nil {
				log.Fatal(err)
			}
			return
		}
		n, err := surveyFromStore(*storeDir, s, reg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("surveyed %d records streamed from %s", n, *storeDir)
		showBlacklist = true // the store carries the DBL bit per record
		renderSurvey(os.Stdout, s, showBlacklist)
		return
	}

	parseAll := func(texts []string) []*core.ParsedRecord {
		out, err := stk.Server.ParseBatch(context.Background(), texts)
		if err != nil {
			log.Fatal(err)
		}
		return out
	}

	var sink *store.Store
	if *storeOut != "" {
		sink, err = store.Open(*storeOut, store.Options{Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := sink.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}()
	}
	persist := func(domain, text string, pr *core.ParsedRecord, f survey.Facts) {
		if sink == nil {
			return
		}
		if err := sink.Append(&store.Record{Domain: domain, Text: text, Parsed: pr, Facts: f}); err != nil {
			log.Fatal(err)
		}
	}

	dbl := make(map[string]bool)
	if *dblFile != "" {
		for _, d := range mustLines(*dblFile) {
			dbl[strings.ToLower(d)] = true
		}
	}

	switch {
	case *synthetic > 0:
		surveySynthetic(s, *synthetic, *seed, parseAll, persist)
		showBlacklist = true
	case *in != "":
		records, err := readRecords(*in)
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		var texts []string
		var registrars []string
		for domain, rec := range records {
			names = append(names, domain)
			texts = append(texts, rec.text)
			registrars = append(registrars, rec.registrar)
		}
		for i, pr := range parseAll(texts) {
			f := survey.FactsWithThin(pr, registrars[i], dbl[names[i]])
			if f.Domain == "" {
				f.Domain = names[i]
			}
			s.Add(f)
			persist(names[i], texts[i], pr, f)
		}
		showBlacklist = len(dbl) > 0
	default:
		log.Fatal("need -in records.txt, -synthetic N, or -store dir")
	}

	log.Printf("surveying %d parsed records", s.Len())
	renderSurvey(os.Stdout, s, showBlacklist)
}

// surveySynthetic is the -synthetic mode: it generates n domains from
// seed, parses their thick records with parseAll, and folds each into s
// joined with its thin record's registrar; persist sees every record.
func surveySynthetic(s *survey.Survey, n int, seed int64, parseAll func([]string) []*core.ParsedRecord,
	persist func(domain, text string, pr *core.ParsedRecord, f survey.Facts)) {
	domains := synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02})
	texts := make([]string, len(domains))
	for i, d := range domains {
		texts[i] = d.Render().Text
	}
	for i, pr := range parseAll(texts) {
		f := survey.FactsWithThin(pr, domains[i].Reg.RegistrarName, domains[i].Blacklisted)
		if f.Domain == "" {
			f.Domain = domains[i].Reg.Domain
		}
		s.Add(f)
		persist(f.Domain, texts[i], pr, f)
	}
}

// runConsistency is the -consistency mode: audit the store's WHOIS
// parses against src, restricted to the -where cohort, and print the
// survey-style disagreement tables. The sentinel runs over the batch so
// registrars whose windowed disagreement rate crosses the ceiling are
// reported (and consistency.drift.* lands in the final stats dump).
func runConsistency(w io.Writer, dir, where string, src consistency.RDAPSource, reg *obs.Registry) error {
	var p query.Pred
	if where != "" {
		var err error
		if p, err = query.ParsePred(where); err != nil {
			return err
		}
	}
	st, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		return err
	}
	defer st.Close()
	e := query.New(st, query.Options{Metrics: reg})
	if _, err := e.BuildAll(); err != nil {
		log.Printf("sidecar build: %v (scan will fall back where needed)", err)
	}

	sen := consistency.NewSentinel(consistency.SentinelOptions{})
	if reg != nil {
		sen.Instrument(reg)
	}
	a := consistency.NewAuditor()
	a.Sentinel = sen
	scored, err := a.AuditStore(e, p, src)
	if err != nil {
		return err
	}
	s := a.Summary()
	log.Printf("where %s: audited %d records, skipped %d (no parse or no RDAP answer)", p, scored, s.Skipped)

	fmt.Fprintf(w, "Cross-protocol audit — %d records, %d with conflicts, disagreement rate %.2f%%\n\n",
		s.Records, s.Conflicted, 100*s.Rate)
	fmt.Fprintln(w, s.FieldTable())
	fmt.Fprintln(w, s.VerdictTable())
	fmt.Fprintln(w, s.RegistrarTable(10))
	if len(s.Flagged) > 0 {
		fmt.Fprintf(w, "drift-flagged registrars: %s\n", strings.Join(s.Flagged, ", "))
	}
	return nil
}

// surveyWhere surveys the subset of a store matching a predicate through
// the query engine: sealed segments are folded from their facts
// sidecars, and missing or stale sidecars are rebuilt in-line (first
// predicated survey over a fresh store pays the build; later ones ride
// it).
func surveyWhere(dir, where string, reg *obs.Registry) error {
	p, err := query.ParsePred(where)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		return err
	}
	defer st.Close()
	e := query.New(st, query.Options{Metrics: reg})
	if built, err := e.BuildAll(); err != nil {
		// Not fatal: the scan rebuilds per segment, or falls back.
		log.Printf("sidecar build: %v (scan will fall back where needed)", err)
	} else if built > 0 {
		log.Printf("built sidecars for %d segments", built)
	}
	sv, stats, err := e.Survey(p)
	if err != nil {
		return err
	}
	log.Printf("where %s: %s", p, stats)
	renderSurvey(os.Stdout, sv, true)
	return nil
}

// surveyFromStore streams every record of a store directory into the
// survey aggregates, holding one record in memory at a time.
func surveyFromStore(dir string, s *survey.Survey, reg *obs.Registry) (uint64, error) {
	st, err := store.Open(dir, store.Options{Metrics: reg})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	it := st.Iter()
	defer it.Close()
	var n uint64
	for it.Next() {
		s.Add(it.Record().Facts)
		n++
	}
	return n, it.Err()
}

// renderSurvey prints the full table/figure set. Output is a pure
// function of the survey aggregates, so a store-streamed survey and an
// in-memory one over the same facts render byte-identically.
func renderSurvey(w io.Writer, s *survey.Survey, showBlacklist bool) {
	t3all, t3new := s.Table3()
	fmt.Fprintln(w, survey.RenderRows("Table 3 (left) — registrant countries, all time", t3all))
	fmt.Fprintln(w, survey.RenderRows("Table 3 (right) — registrant countries, created 2014", t3new))
	t5all, t5new := s.Table5()
	fmt.Fprintln(w, survey.RenderRows("Table 5 (left) — registrars, all time", t5all))
	fmt.Fprintln(w, survey.RenderRows("Table 5 (right) — registrars, created 2014", t5new))
	fmt.Fprintln(w, survey.RenderRows("Table 6 — registrars of privacy-protected domains", s.Table6()))
	fmt.Fprintln(w, survey.RenderRows("Table 7 — privacy protection services", s.Table7()))
	if showBlacklist {
		fmt.Fprintln(w, survey.RenderRows("Table 8 — registrant countries of blacklisted 2014 domains", s.Table8()))
		fmt.Fprintln(w, survey.RenderRows("Table 9 — registrars of blacklisted 2014 domains", s.Table9()))
	}
	fmt.Fprintln(w, survey.RenderHistogram("Figure 4a — domains created per year", s.Figure4a()))
	fmt.Fprintln(w, survey.RenderMixes("Figure 4b — proportions by creation year", s.Figure4b(1995), survey.Figure4bLabels()))
	fmt.Fprintln(w, survey.RenderRegistrarMixes("Figure 5 — top registrant countries for selected registrars",
		s.Figure5([]string{"eNom", "HiChina", "GMO", "Melbourne"})))
}

// crawledRecord is one thick record plus the thin record's registrar.
type crawledRecord struct {
	text      string
	registrar string
}

// readRecords parses whoiscrawl output:
// "%% DOMAIN name SERVER s REGISTRAR r" ... "%% END" sections.
func readRecords(path string) (map[string]crawledRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]crawledRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var domain, registrar string
	var body []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "%% DOMAIN "):
			fields := strings.Fields(line)
			if len(fields) >= 3 {
				domain = fields[2]
			}
			registrar = ""
			if i := strings.Index(line, " REGISTRAR "); i >= 0 {
				registrar = strings.TrimSpace(line[i+len(" REGISTRAR "):])
			}
			body = body[:0]
		case line == "%% END":
			if domain != "" {
				out[strings.ToLower(domain)] = crawledRecord{text: strings.Join(body, "\n"), registrar: registrar}
			}
			domain = ""
		default:
			if domain != "" {
				body = append(body, line)
			}
		}
	}
	return out, sc.Err()
}

func mustLines(path string) []string {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			out = append(out, l)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return out
}
