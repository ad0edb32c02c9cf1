package templatebased

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/labels"
	"repro/internal/synth"
	"repro/internal/templates"
	"repro/internal/tokenize"
)

// refTemplate is one registrar's line catalog in the reference parser.
type refTemplate struct {
	titleBlock map[string]labels.Block
	titleField map[string]labels.Field
	rawBlock   map[string]labels.Block // exact trimmed text -> block
	headers    map[string]labels.Block // exact trimmed header -> context block
}

// refParser is the template parser Compile and Match replaced, kept as
// their reference: it induces its own templates from tokenize.Tokenize
// lines and labels a record from its Tokenize lines, reading blank-line
// context breaks off the NL observation.
type refParser struct {
	templates map[string]*refTemplate
	opts      tokenize.Options
}

func refLinePrefix(ln tokenize.Line) string { return prefixOf(ln.Raw, ln.Title, ln.Value) }

func refIsHeader(ln tokenize.Line) bool {
	trimmed := strings.TrimSpace(ln.Raw)
	if ln.HasSep && ln.Value == "" {
		return true
	}
	return strings.HasSuffix(trimmed, ":") && tokenize.CountWords(trimmed) <= 7
}

func refBuild(records []*labels.LabeledRecord, opts tokenize.Options) *refParser {
	p := &refParser{templates: make(map[string]*refTemplate), opts: opts}
	for _, rec := range records {
		t := p.templates[rec.Registrar]
		if t == nil {
			t = &refTemplate{
				titleBlock: make(map[string]labels.Block),
				titleField: make(map[string]labels.Field),
				rawBlock:   make(map[string]labels.Block),
				headers:    make(map[string]labels.Block),
			}
			p.templates[rec.Registrar] = t
		}
		lines := tokenize.Tokenize(rec.Text, opts)
		if len(lines) != len(rec.Lines) {
			continue
		}
		for i, ln := range lines {
			lab := rec.Lines[i]
			trimmed := strings.TrimSpace(ln.Raw)
			switch {
			case ln.HasSep && ln.Value != "":
				t.titleBlock[refLinePrefix(ln)] = lab.Block
				t.titleField[refLinePrefix(ln)] = lab.Field
			case refIsHeader(ln):
				t.headers[trimmed] = lab.Block
			default:
				if lab.Block == labels.Null {
					t.rawBlock[trimmed] = lab.Block
				}
			}
		}
	}
	return p
}

// parseBlocks labels a record using its registrar's template.
func (p *refParser) parseBlocks(registrar, text string) ([]tokenize.Line, []labels.Block, error) {
	t := p.templates[registrar]
	if t == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoTemplate, registrar)
	}
	lines := tokenize.Tokenize(text, p.opts)
	out := make([]labels.Block, len(lines))
	context := labels.Null
	haveContext := false
	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln.Raw)
		for _, o := range ln.Obs {
			if o == tokenize.MarkNL {
				haveContext = false
			}
		}
		switch {
		case refIsHeader(ln):
			if b, ok := t.headers[trimmed]; ok {
				out[i] = b
				context, haveContext = b, true
				continue
			}
			if ln.HasSep {
				if b, ok := t.titleBlock[refLinePrefix(ln)]; ok {
					out[i] = b
					context, haveContext = b, true
					continue
				}
			}
			return lines, nil, fmt.Errorf("%w: unknown header %q", ErrMismatch, trimmed)
		case ln.HasSep:
			if b, ok := t.titleBlock[refLinePrefix(ln)]; ok {
				out[i] = b
				continue
			}
			return lines, nil, fmt.Errorf("%w: unknown title %q", ErrMismatch, ln.Title)
		default:
			if b, ok := t.rawBlock[trimmed]; ok {
				out[i] = b
				haveContext = false
				continue
			}
			if haveContext {
				out[i] = context
				continue
			}
			return lines, nil, fmt.Errorf("%w: unexpected line %q", ErrMismatch, trimmed)
		}
	}
	return lines, out, nil
}

// parseFields assigns registrant field labels by the template's exact
// title rules; every other line is labeled other.
func (p *refParser) parseFields(registrar string, lines []tokenize.Line, blocks []labels.Block) []labels.Field {
	t := p.templates[registrar]
	out := make([]labels.Field, len(lines))
	for i, ln := range lines {
		out[i] = labels.FieldOther
		if blocks[i] != labels.Registrant || !ln.HasSep || ln.Value == "" {
			continue
		}
		if f, ok := t.titleField[refLinePrefix(ln)]; ok {
			out[i] = f
		}
	}
	return out
}

// refDetect is Match's registrar detection spelled over Tokenize lines:
// the registrar of the first line whose trimmed text is in the
// detection index, or "".
func refDetect(c *Compiled, text string) string {
	for _, ln := range tokenize.Tokenize(text, tokenize.Options{}) {
		if t, ok := c.detect[strings.TrimSpace(ln.Raw)]; ok {
			return t.registrar
		}
	}
	return ""
}

// matchDiff describes how m differs from the reference's labels, or
// returns "".
func matchDiff(m Match, lines []tokenize.Line, blocks []labels.Block, fields []labels.Field) string {
	if len(m.Lines) != len(lines) {
		return fmt.Sprintf("%d lines, reference %d", len(m.Lines), len(lines))
	}
	for i := range lines {
		if m.Lines[i].Raw != lines[i].Raw || m.Lines[i].Title != lines[i].Title ||
			m.Lines[i].Value != lines[i].Value || m.Lines[i].HasSep != lines[i].HasSep || m.Lines[i].Obs != nil {
			return fmt.Sprintf("line %d: %+v, reference %+v", i, m.Lines[i], lines[i])
		}
		if m.Blocks[i] != blocks[i] {
			return fmt.Sprintf("line %d: block %v, reference %v", i, m.Blocks[i], blocks[i])
		}
		if m.Fields[i] != fields[i] {
			return fmt.Sprintf("line %d: field %v, reference %v", i, m.Fields[i], fields[i])
		}
	}
	return ""
}

// TestMatchEquivalentToParser is the contract the tiered router depends
// on: wherever Match succeeds, its Lines/Blocks/Fields must be exactly
// what the reference parser produces for the same record, and wherever
// the reference parser would fail, Match must decline rather than guess.
func TestMatchEquivalentToParser(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 600, Seed: 41})
	opts := tokenize.Options{}
	p := refBuild(recs[:400], opts)
	c := Compile(recs[:400], opts)
	matched := 0
	for _, rec := range recs[400:] {
		m, err := c.Match(rec.Text)
		if err != nil {
			continue
		}
		matched++
		if m.Registrar != rec.Registrar {
			t.Fatalf("detected registrar %q, want %q", m.Registrar, rec.Registrar)
		}
		lines, blocks, perr := p.parseBlocks(rec.Registrar, rec.Text)
		if perr != nil {
			t.Fatalf("Match succeeded but the reference failed on %s: %v", rec.Domain, perr)
		}
		if d := matchDiff(m, lines, blocks, p.parseFields(rec.Registrar, lines, blocks)); d != "" {
			t.Fatalf("%s: %s", rec.Domain, d)
		}
		if m.Confidence <= 0 || m.Confidence > 1 {
			t.Fatalf("%s: confidence %v out of range", rec.Domain, m.Confidence)
		}
	}
	if matched < 50 {
		t.Fatalf("only %d test records matched; fast path not exercising head traffic", matched)
	}
}

// edgeVariants rewrites text to reach rules the rendered corpus rarely
// does: a blank line after every header, which ends header context only
// under layout; CRLF line ends; a colon after every titled value but
// c's registrar-identity lines, which turns value lines into headers;
// and another registrar's identity line appended, since detection takes
// the first.
func edgeVariants(c *Compiled, text, identity string) []string {
	var blank, colon strings.Builder
	for _, ln := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(ln)
		blank.WriteString(ln + "\n")
		if strings.HasSuffix(trimmed, ":") {
			blank.WriteString("\n")
		}
		if _, value, ok := tokenize.SplitTitleValue(trimmed); ok && value != "" && c.detect[trimmed] == nil {
			ln += ":"
		}
		colon.WriteString(ln + "\n")
	}
	return []string{blank.String(), strings.ReplaceAll(text, "\n", "\r\n"), colon.String(), text + "\n" + identity + "\n"}
}

func envInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// TestMatchDifferential holds Match and MatchRegistrar to the reference
// parser in both directions, with and without layout, over every .com
// and new-TLD schema, each drift mutation of it, and a synthetic corpus
// with drifted formats mixed in: Match declines with ErrNoTemplate
// exactly when the reference detects no registrar, and with ErrMismatch
// exactly when the reference fails for the detected one; otherwise the
// two label every line the same. MatchRegistrar with the detected
// registrar returns what Match returns. PARSEDIFF_N and PARSEDIFF_SEED
// (the knobs of `make parse-diff`) widen the corpus.
func TestMatchDifferential(t *testing.T) {
	n := int(envInt("PARSEDIFF_N", 300))
	seed := envInt("PARSEDIFF_SEED", 1)
	t.Logf("match corpus: PARSEDIFF_N=%d PARSEDIFF_SEED=%d", n, seed)
	train := synth.GenerateLabeled(synth.Config{N: 600, Seed: seed + 1, BrandFraction: 0.02})
	var texts []string
	regs := synth.Generate(synth.Config{N: 2, Seed: seed})
	for _, sc := range append(templates.ComSchemas(), templates.NewTLDSchemas()...) {
		// Each schema is a registrar of its own, trained on one render,
		// so its renders and drift mutations meet their own template.
		reg := regs[0].Reg
		reg.RegistrarName = "Registrar of " + sc.ID
		r := sc.Render(&reg)
		train = append(train, &labels.LabeledRecord{Domain: reg.Domain, Registrar: reg.RegistrarName, Text: r.Text, Lines: r.Lines})
		variants := []*templates.Schema{sc}
		for k := templates.DriftTitles; k <= templates.DriftDates; k++ {
			variants = append(variants, templates.Drift(sc, k))
		}
		for _, v := range variants {
			for _, d := range regs {
				reg := d.Reg
				reg.RegistrarName = "Registrar of " + sc.ID
				texts = append(texts, v.Render(&reg).Text)
			}
		}
	}
	for _, d := range synth.Generate(synth.Config{N: n, Seed: seed, DriftFraction: 0.2, BrandFraction: 0.02}) {
		texts = append(texts, d.Render().Text)
	}
	for _, opts := range []tokenize.Options{{}, {DisableLayout: true}} {
		c := Compile(train, opts)
		p := refBuild(train, opts)
		identities := make([]string, 0, len(c.detect))
		for line := range c.detect {
			identities = append(identities, line)
		}
		sort.Strings(identities)
		var all []string
		for i, text := range texts {
			all = append(all, text)
			all = append(all, edgeVariants(c, text, identities[i%len(identities)])...)
		}
		var matched, mismatched int
		for _, text := range all {
			m, err := c.Match(text)
			reg := refDetect(c, text)
			if reg == "" {
				if !errors.Is(err, ErrNoTemplate) {
					t.Fatalf("%+v: no registrar detected, Match returned %v\n%s", opts, err, text)
				}
				continue
			}
			lines, blocks, perr := p.parseBlocks(reg, text)
			switch {
			case perr != nil:
				if !errors.Is(err, ErrMismatch) {
					t.Fatalf("%+v: reference failed (%v), Match returned %v\n%s", opts, perr, err, text)
				}
				mismatched++
			case err != nil:
				t.Fatalf("%+v: reference labeled the record, Match returned %v\n%s", opts, err, text)
			default:
				if m.Registrar != reg {
					t.Fatalf("%+v: Match detected %q, reference %q", opts, m.Registrar, reg)
				}
				if d := matchDiff(m, lines, blocks, p.parseFields(reg, lines, blocks)); d != "" {
					t.Fatalf("%+v: %s\n%s", opts, d, text)
				}
				matched++
			}
			mr, rerr := c.MatchRegistrar(reg, text)
			if rerr != err || !reflect.DeepEqual(mr, m) {
				t.Fatalf("%+v: MatchRegistrar(%q) = %+v, %v; Match = %+v, %v", opts, reg, mr, rerr, m, err)
			}
		}
		t.Logf("%+v: %d texts, %d matched, %d mismatched", opts, len(all), matched, mismatched)
		if matched == 0 || mismatched == 0 {
			t.Fatalf("%+v: corpus exercised %d matches and %d mismatches; want both", opts, matched, mismatched)
		}
	}
}

func TestMatchDeclinesUnknownRegistrar(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 100, Seed: 42})
	c := Compile(recs, tokenize.Options{})
	_, err := c.Match("Domain Name: example.com\nRegistrar: Never Seen Before LLC\n")
	if !errors.Is(err, ErrNoTemplate) {
		t.Errorf("got %v, want ErrNoTemplate", err)
	}
	if _, err := c.Match(""); !errors.Is(err, ErrNoTemplate) {
		t.Errorf("empty record: got %v, want ErrNoTemplate", err)
	}
}

func TestMatchDeclinesDriftedRecords(t *testing.T) {
	snapshot := synth.GenerateLabeled(synth.Config{N: 600, Seed: 43})
	c := Compile(snapshot, tokenize.Options{})
	drifted := synth.GenerateLabeled(synth.Config{N: 300, Seed: 44, DriftFraction: 1.0})
	fails, matched := 0, 0
	for _, rec := range drifted {
		if !c.HasTemplate(rec.Registrar) {
			continue
		}
		if _, err := c.Match(rec.Text); err != nil {
			if !errors.Is(err, ErrNoTemplate) && !errors.Is(err, ErrMismatch) {
				t.Fatalf("unexpected error: %v", err)
			}
			fails++
		} else {
			matched++
		}
	}
	if fails == 0 {
		t.Fatal("no drifted record was declined; fast path should fail crisply under drift")
	}
	_ = matched
}

func TestMatchMismatchOnMutatedTitle(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 200, Seed: 45})
	c := Compile(recs, tokenize.Options{})
	for _, rec := range recs {
		if _, err := c.Match(rec.Text); err != nil {
			continue
		}
		// Rename one titled line the template has never seen.
		mutated := strings.Replace(rec.Text, "Domain Name:", "Domain Designation:", 1)
		if mutated == rec.Text {
			continue
		}
		if _, err := c.Match(mutated); !errors.Is(err, ErrMismatch) {
			t.Fatalf("mutated record: got %v, want ErrMismatch", err)
		}
		return
	}
	t.Fatal("no matchable record with a Domain Name line found")
}

func TestCompiledAccessors(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 300, Seed: 46})
	c := Compile(recs, tokenize.Options{})
	if c.NumTemplates() == 0 {
		t.Fatal("no templates compiled")
	}
	regs := c.Registrars()
	if len(regs) != c.NumTemplates() {
		t.Fatalf("Registrars len %d != NumTemplates %d", len(regs), c.NumTemplates())
	}
	for i := 1; i < len(regs); i++ {
		if regs[i-1] >= regs[i] {
			t.Fatal("Registrars not sorted/deduped")
		}
	}
	for _, r := range regs {
		if !c.HasTemplate(r) {
			t.Fatalf("HasTemplate(%q) false for listed registrar", r)
		}
	}
	if c.HasTemplate("nobody at all") {
		t.Fatal("HasTemplate true for unknown registrar")
	}
}

// TestMatchAllocs keeps the fast path honest: a successful match costs
// only the three result slices, and a record no template claims costs
// nothing.
func TestMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	recs := synth.GenerateLabeled(synth.Config{N: 200, Seed: 47})
	c := Compile(recs, tokenize.Options{})
	var text string
	for _, rec := range recs {
		if _, err := c.Match(rec.Text); err == nil {
			text = rec.Text
			break
		}
	}
	if text == "" {
		t.Fatal("no matchable record")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Match(text); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Errorf("Match allocates %.1f times per record; want 3", allocs)
	}
	unknown := "Domain Name: example.com\nRegistrar: Never Seen Before LLC\n"
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := c.Match(unknown); err != ErrNoTemplate {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Match allocates %.1f times on ErrNoTemplate; want 0", allocs)
	}
	// A drifted record: the template is detected, then one boilerplate
	// line it has never seen fails the match.
	drifted := text + "\nA boilerplate line no template has seen\n"
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := c.Match(drifted); err != ErrMismatch {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Match allocates %.1f times on ErrMismatch; want 0", allocs)
	}
}

// TestMatchConcurrent runs Match and MatchRegistrar from several
// goroutines over one Compiled, whose line scratch is pooled: every
// result must equal the sequential one.
func TestMatchConcurrent(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 200, Seed: 49})
	c := Compile(recs[:100], tokenize.Options{})
	want := make([]Match, len(recs))
	for i, rec := range recs {
		want[i], _ = c.Match(rec.Text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, rec := range recs {
				m, err := c.Match(rec.Text)
				if !reflect.DeepEqual(m, want[i]) {
					t.Errorf("%s: concurrent Match differs from sequential", rec.Domain)
					return
				}
				if err == nil {
					if mr, _ := c.MatchRegistrar(m.Registrar, rec.Text); !reflect.DeepEqual(mr, m) {
						t.Errorf("%s: concurrent MatchRegistrar differs from Match", rec.Domain)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDetectCountsRetainedLines checks that Match retains exactly the
// lines Tokenize does, and detects the record's own registrar.
func TestDetectCountsRetainedLines(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 100, Seed: 48})
	c := Compile(recs, tokenize.Options{})
	matched := 0
	for _, rec := range recs {
		m, err := c.Match(rec.Text)
		if err != nil {
			continue
		}
		matched++
		if want := len(tokenize.Tokenize(rec.Text, tokenize.Options{})); len(m.Lines) != want {
			t.Fatalf("%s: Match retained %d lines, Tokenize %d", rec.Domain, len(m.Lines), want)
		}
		if m.Registrar != rec.Registrar {
			t.Fatalf("%s: detected %q, want %q", rec.Domain, m.Registrar, rec.Registrar)
		}
	}
	if matched == 0 {
		t.Fatal("no record matched")
	}
}

// Confidence should be diluted by context-carried bare lines, which an
// exact template cannot field-label — the signal the router thresholds on.
func TestMatchConfidenceDilutedByBareLines(t *testing.T) {
	text := "Registrar: Acme Registrations Inc.\n" +
		"Registrant Contact:\n" +
		"John Smith\n" +
		"123 Main Street\n"
	rec := &labels.LabeledRecord{
		Domain:    "example.com",
		TLD:       "com",
		Registrar: "Acme Registrations Inc.",
		Text:      text,
		Lines: []labels.LabeledLine{
			{Text: "Registrar: Acme Registrations Inc.", Block: labels.Registrar, Field: labels.FieldOther},
			{Text: "Registrant Contact:", Block: labels.Registrant, Field: labels.FieldOther},
			{Text: "John Smith", Block: labels.Registrant, Field: labels.FieldName},
			{Text: "123 Main Street", Block: labels.Registrant, Field: labels.FieldStreet},
		},
	}
	c := Compile([]*labels.LabeledRecord{rec}, tokenize.Options{})
	m, err := c.Match(text)
	if err != nil {
		t.Fatal(err)
	}
	// Registrar line and header are exact; the two bare registrant lines
	// are labeled only by header-context carry: 2 exact of 4 retained.
	if m.Confidence != 0.5 {
		t.Fatalf("confidence %v, want 0.5", m.Confidence)
	}
	// A record that is nothing but exact titled lines scores 1.
	allTitled := "Registrar: Acme Registrations Inc.\n"
	m, err = c.Match(allTitled)
	if err != nil {
		t.Fatal(err)
	}
	if m.Confidence != 1 {
		t.Fatalf("all-exact confidence %v, want 1", m.Confidence)
	}
}
