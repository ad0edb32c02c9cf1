package core

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/labels"
	"repro/internal/leakcheck"
	"repro/internal/optimize"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// trainedParser trains once per test binary on a small corpus.
var trainedParser *Parser

func getParser(t testing.TB) *Parser {
	t.Helper()
	if trainedParser == nil {
		recs := synth.GenerateLabeled(synth.Config{N: 400, Seed: 101})
		p, stats, err := Train(recs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if stats.BlockFeatures == 0 || stats.FieldFeatures == 0 {
			t.Fatalf("degenerate feature spaces: %+v", stats)
		}
		trainedParser = p
	}
	return trainedParser
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, _, err := Train(nil, DefaultConfig()); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestTrainRejectsMisalignedRecord(t *testing.T) {
	rec := &labels.LabeledRecord{
		Domain: "x.com", TLD: "com", Registrar: "r",
		Text:  "a: 1\nb: 2",
		Lines: []labels.LabeledLine{{Text: "a: 1", Block: labels.Domain}},
	}
	if _, _, err := Train([]*labels.LabeledRecord{rec}, DefaultConfig()); err == nil {
		t.Fatal("expected alignment error")
	}
}

func TestParserAccuracyOnHeldOut(t *testing.T) {
	p := getParser(t)
	test := synth.GenerateLabeled(synth.Config{N: 300, Seed: 202})
	m, err := eval.EvalBlocks(p, test)
	if err != nil {
		t.Fatal(err)
	}
	if m.LineErrorRate() > 0.02 {
		t.Errorf("line error %.4f too high for 400 training examples (paper: <2%% at 100)",
			m.LineErrorRate())
	}
}

func TestFieldAccuracyOnHeldOut(t *testing.T) {
	p := getParser(t)
	test := synth.GenerateLabeled(synth.Config{N: 300, Seed: 203})
	m, err := eval.EvalFields(p, test)
	if err != nil {
		t.Fatal(err)
	}
	if m.LineErrorRate() > 0.03 {
		t.Errorf("registrant field error %.4f too high", m.LineErrorRate())
	}
}

func TestParseExtractsFields(t *testing.T) {
	p := getParser(t)
	domains := synth.Generate(synth.Config{N: 200, Seed: 204})
	var nameMiss, regMiss, regTotal, dateMiss int
	for _, d := range domains {
		text := d.Render().Text
		pr := p.Parse(text)
		if pr.Registrant.Name == "" && !d.Reg.Privacy {
			nameMiss++
		}
		// Some legacy formats (netsol family) genuinely omit the
		// registrar name from the thick record.
		if strings.Contains(text, d.Reg.RegistrarName) {
			regTotal++
			if pr.Registrar == "" {
				regMiss++
			}
		}
		if pr.CreatedDate == "" {
			dateMiss++
		}
	}
	if float64(nameMiss)/float64(len(domains)) > 0.03 {
		t.Errorf("registrant name missing in %d/%d records", nameMiss, len(domains))
	}
	if float64(regMiss)/float64(regTotal) > 0.05 {
		t.Errorf("registrar missing in %d/%d records that carry it", regMiss, regTotal)
	}
	if float64(dateMiss)/float64(len(domains)) > 0.05 {
		t.Errorf("creation date missing in %d/%d records", dateMiss, len(domains))
	}
}

func TestParseExtractionFidelity(t *testing.T) {
	p := getParser(t)
	domains := synth.Generate(synth.Config{N: 200, Seed: 205})
	var nameOK, total int
	for _, d := range domains {
		if d.Reg.Privacy {
			continue
		}
		pr := p.Parse(d.Render().Text)
		total++
		if pr.Registrant.Name == d.Reg.Registrant.Name {
			nameOK++
		}
	}
	if rate := float64(nameOK) / float64(total); rate < 0.95 {
		t.Errorf("registrant name fidelity %.3f, want >= 0.95", rate)
	}
}

func TestExtractDomainBlockMultiValues(t *testing.T) {
	mk := func(raw string) tokenize.Line {
		title, value, _ := tokenize.SplitTitleValue(raw)
		return tokenize.Line{Raw: raw, Title: title, Value: value}
	}
	pr := &ParsedRecord{
		Lines: []tokenize.Line{
			mk("Domain Name: EXAMPLE.COM"),
			mk("Domain Status: clientTransferProhibited https://icann.org/epp"),
			mk("Name Server: NS1.EXAMPLE.NET"),
			mk("Name Server: NS2.EXAMPLE.NET"),
			mk("Domain Name Servers: ns3.example.net"),
			mk("Nserver: ns4.example.net"),
			mk("Status: ok"),
			mk("DNSSEC: unsigned"),
			mk("Registrar WHOIS Server: whois.example-registrar.com"),
		},
		Blocks: []labels.Block{
			labels.Domain, labels.Domain, labels.Domain, labels.Domain,
			labels.Domain, labels.Domain, labels.Domain, labels.Domain, labels.Registrar,
		},
		Fields: make([]labels.Field, 9),
	}
	pr.ExtractFields()
	if pr.DomainName != "example.com" {
		t.Errorf("DomainName = %q", pr.DomainName)
	}
	wantNS := []string{"NS1.EXAMPLE.NET", "NS2.EXAMPLE.NET", "ns3.example.net", "ns4.example.net"}
	if strings.Join(pr.NameServers, "|") != strings.Join(wantNS, "|") {
		t.Errorf("NameServers = %v, want %v", pr.NameServers, wantNS)
	}
	wantSt := []string{"clientTransferProhibited https://icann.org/epp", "ok"}
	if strings.Join(pr.Statuses, "|") != strings.Join(wantSt, "|") {
		t.Errorf("Statuses = %v, want %v", pr.Statuses, wantSt)
	}
	// The multi-value slices must be deep-copied by Clone.
	cl := pr.Clone()
	cl.NameServers[0] = "mutated"
	cl.Statuses[0] = "mutated"
	if pr.NameServers[0] == "mutated" || pr.Statuses[0] == "mutated" {
		t.Error("mutating clone's multi-values leaked into original")
	}
}

func TestParseExtractsNameServers(t *testing.T) {
	p := getParser(t)
	domains := synth.Generate(synth.Config{N: 200, Seed: 207})
	var withNS, gotNS int
	for _, d := range domains {
		if len(d.Reg.NameServers) == 0 {
			continue
		}
		text := d.Render().Text
		// Bare (untitled) nameserver lines carry no title to key on;
		// count only records with a titled nameserver line.
		if !strings.Contains(strings.ToLower(text), "server") && !strings.Contains(text, "Nserver") {
			continue
		}
		withNS++
		if len(p.Parse(text).NameServers) > 0 {
			gotNS++
		}
	}
	if withNS == 0 {
		t.Fatal("no synthetic records with titled nameserver lines")
	}
	if rate := float64(gotNS) / float64(withNS); rate < 0.7 {
		t.Errorf("nameserver extraction rate %.3f (%d/%d), want >= 0.7", rate, gotNS, withNS)
	}
}

func TestParsedRecordClone(t *testing.T) {
	p := getParser(t)
	d := synth.Generate(synth.Config{N: 1, Seed: 206})[0]
	pr := p.Parse(d.Render().Text)
	if len(pr.Blocks) == 0 {
		t.Fatal("parse produced no blocks")
	}
	cl := pr.Clone()
	if cl == pr {
		t.Fatal("Clone returned the same pointer")
	}
	if len(cl.Lines) != len(pr.Lines) || len(cl.Blocks) != len(pr.Blocks) || len(cl.Fields) != len(pr.Fields) {
		t.Fatal("Clone changed slice lengths")
	}
	if cl.Registrant != pr.Registrant || cl.Registrar != pr.Registrar || cl.DomainName != pr.DomainName {
		t.Error("Clone changed scalar fields")
	}
	orig := pr.Blocks[0]
	cl.Blocks[0] = orig + 1
	cl.Registrar = "mutated"
	if pr.Blocks[0] != orig {
		t.Error("mutating clone's Blocks leaked into original")
	}
	if pr.Registrar == "mutated" {
		t.Error("mutating clone's Registrar leaked into original")
	}
}

func TestParseEmptyText(t *testing.T) {
	p := getParser(t)
	pr := p.Parse("")
	if len(pr.Lines) != 0 || len(pr.Blocks) != 0 {
		t.Errorf("empty parse produced %d lines", len(pr.Lines))
	}
}

func TestParseBoilerplateOnly(t *testing.T) {
	p := getParser(t)
	pr := p.Parse("The data in this record is provided for information purposes only.\nAll rights reserved.")
	for i, b := range pr.Blocks {
		if b != labels.Null {
			t.Errorf("boilerplate line %d labeled %v", i, b)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	p := getParser(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := synth.Generate(synth.Config{N: 20, Seed: 206})[3]
	text := d.Render().Text
	a := p.Parse(text)
	b := p2.Parse(text)
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatal("block counts differ after round trip")
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] || a.Fields[i] != b.Fields[i] {
			t.Fatalf("labels differ at line %d after round trip", i)
		}
	}
	if a.Registrant != b.Registrant {
		t.Errorf("extracted registrant differs: %+v vs %+v", a.Registrant, b.Registrant)
	}
	if p2.Config().MinCount != p.Config().MinCount {
		t.Error("config lost in round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a model")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestParseFieldsOnlyTouchesRegistrantLines(t *testing.T) {
	p := getParser(t)
	d := synth.Generate(synth.Config{N: 10, Seed: 207})[0]
	lines, blocks := p.ParseBlocks(d.Render().Text)
	fields := p.ParseFields(lines, blocks)
	for i := range fields {
		if blocks[i] != labels.Registrant && fields[i] != labels.FieldOther {
			t.Errorf("non-registrant line %d got field %v", i, fields[i])
		}
	}
}

func TestMultiLineStreetJoined(t *testing.T) {
	p := getParser(t)
	text := strings.Join([]string{
		"Domain Name: street-test.com",
		"Registrar: Example",
		"Creation Date: 2012-01-02",
		"Registrant Name: Jane Roe",
		"Registrant Street: 1 Main St",
		"Registrant Street: Suite 200",
		"Registrant City: Springfield",
		"Registrant Country: US",
		"Registrant Email: jane@example.com",
	}, "\n")
	pr := p.Parse(text)
	if !strings.Contains(pr.Registrant.Street, "1 Main St") {
		t.Errorf("street lost: %q", pr.Registrant.Street)
	}
	if !strings.Contains(pr.Registrant.Street, "Suite 200") {
		t.Errorf("second street line not joined: %q", pr.Registrant.Street)
	}
}

func TestTrainStatsFeatureCounts(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 200, Seed: 208})
	_, stats, err := Train(recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's first-level CRF is larger than its second-level one;
	// with shared tokenization ours must have more block features than
	// registrant lines alone provide.
	if stats.BlockFeatures < 10000 {
		t.Errorf("suspiciously few block features: %d", stats.BlockFeatures)
	}
	if !stats.Block.Converged && stats.Block.Iterations == 0 {
		t.Errorf("block training did not run: %+v", stats.Block)
	}
}

func TestTrainSGDWorks(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 120, Seed: 209})
	cfg := DefaultConfig()
	cfg.Train.Method = "sgd"
	p, _, err := Train(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	test := synth.GenerateLabeled(synth.Config{N: 100, Seed: 210})
	m, err := eval.EvalBlocks(p, test)
	if err != nil {
		t.Fatal(err)
	}
	if m.LineErrorRate() > 0.08 {
		t.Errorf("SGD-trained parser line error %.4f too high", m.LineErrorRate())
	}
}

func TestParseAllMatchesSequential(t *testing.T) {
	p := getParser(t)
	domains := synth.Generate(synth.Config{N: 60, Seed: 211})
	texts := make([]string, len(domains))
	for i, d := range domains {
		texts[i] = d.Render().Text
	}
	parallel := p.ParseAll(texts, 4)
	for i, text := range texts {
		seq := p.Parse(text)
		par := parallel[i]
		if len(seq.Blocks) != len(par.Blocks) {
			t.Fatalf("record %d: lengths differ", i)
		}
		for j := range seq.Blocks {
			if seq.Blocks[j] != par.Blocks[j] || seq.Fields[j] != par.Fields[j] {
				t.Fatalf("record %d line %d differs between sequential and parallel", i, j)
			}
		}
		if seq.Registrant != par.Registrant {
			t.Fatalf("record %d: extracted contacts differ", i)
		}
	}
}

// TestParseAllJoinsGoroutines: ParseAll's worker pool has exited by the
// time it returns.
func TestParseAllJoinsGoroutines(t *testing.T) {
	p := getParser(t)
	domains := synth.Generate(synth.Config{N: 30, Seed: 213})
	texts := make([]string, len(domains))
	for i, d := range domains {
		texts[i] = d.Render().Text
	}
	joined := leakcheck.Joined(t)
	p.ParseAll(texts, 3)
	joined()
}

// TestRankByUncertaintyJoinsGoroutines: RankByUncertainty's scoring
// workers have exited by the time it returns.
func TestRankByUncertaintyJoinsGoroutines(t *testing.T) {
	p := getParser(t)
	domains := synth.Generate(synth.Config{N: 30, Seed: 214})
	texts := make([]string, len(domains))
	for i, d := range domains {
		texts[i] = d.Render().Text
	}
	joined := leakcheck.Joined(t)
	if got := p.RankByUncertainty(texts); len(got) != len(texts) {
		t.Fatalf("ranked %d of %d texts", len(got), len(texts))
	}
	joined()
}

// TestTrainIndependentOfWorkers: the gradient worker count sets speed
// only, so Workers 1, 2 and 3 train byte-identical parsers.
func TestTrainIndependentOfWorkers(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 60, Seed: 212})
	var first []byte
	for workers := 1; workers <= 3; workers++ {
		cfg := DefaultConfig()
		cfg.Train.Workers = workers
		cfg.Train.LBFGS = optimize.DefaultLBFGSConfig()
		cfg.Train.LBFGS.MaxIterations = 15
		p, _, err := Train(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("Workers %d wrote a different model than Workers 1", workers)
		}
	}
}

func TestParseAllEmpty(t *testing.T) {
	p := getParser(t)
	if out := p.ParseAll(nil, 4); len(out) != 0 {
		t.Errorf("empty input produced %d results", len(out))
	}
}

// TestParseSteadyStateAllocs guards the allocation budget of the fused
// parse path. The scan, both id mappings and both lattices run on pooled
// buffers, so what remains is the returned record (its Lines, Blocks and
// Fields, the extracted multi-value lists), the two decoded paths and,
// with confidence, the marginals. The bounds leave headroom over the
// measured steady state (9 and 11) but fail loudly if a per-line or
// per-word allocation (an observation string, an id slice) creeps back:
// the string-building path this replaced paid hundreds per record.
func TestParseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := getParser(t)
	text := synth.Generate(synth.Config{N: 1, Seed: 509})[0].Render().Text
	p.Parse(text) // warm the scratch pools
	p.ParseWithConfidence(text)
	if got := testing.AllocsPerRun(100, func() { p.Parse(text) }); got > 24 {
		t.Errorf("Parse allocates %.0f/op, want <= 24", got)
	}
	if got := testing.AllocsPerRun(100, func() { p.ParseWithConfidence(text) }); got > 28 {
		t.Errorf("ParseWithConfidence allocates %.0f/op, want <= 28", got)
	}
}

// TestRankByUncertaintyMatchesSequential pins the parallel implementation
// to the sequential definition: ascending minimum confidence, ties in
// original order.
func TestRankByUncertaintyMatchesSequential(t *testing.T) {
	p := getParser(t)
	var texts []string
	for _, d := range synth.Generate(synth.Config{N: 12, Seed: 510}) {
		texts = append(texts, d.Render().Text)
	}
	texts = append(texts, "", texts[3]) // duplicates and empties tie
	conf := make([]float64, len(texts))
	for i, tx := range texts {
		_, conf[i] = p.Confidence(tx)
	}
	want := make([]int, len(texts))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return conf[want[a]] < conf[want[b]] })
	got := p.RankByUncertainty(texts)
	if len(got) != len(want) {
		t.Fatalf("got %d indices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: got index %d, want %d (conf %v vs %v)",
				i, got[i], want[i], conf[got[i]], conf[want[i]])
		}
	}
}

// Clone returns a deep copy of the record, for callers that need to
// mutate a result obtained from a shared cache.
func (pr *ParsedRecord) Clone() *ParsedRecord {
	out := *pr
	out.Lines = append([]tokenize.Line(nil), pr.Lines...)
	out.Blocks = append([]labels.Block(nil), pr.Blocks...)
	out.Fields = append([]labels.Field(nil), pr.Fields...)
	out.NameServers = append([]string(nil), pr.NameServers...)
	out.Statuses = append([]string(nil), pr.Statuses...)
	return &out
}
