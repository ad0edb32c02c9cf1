package rulebased

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/labels"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

func corpus(t testing.TB, n int, seed int64) []*labels.LabeledRecord {
	t.Helper()
	return synth.GenerateLabeled(synth.Config{N: n, Seed: seed})
}

func TestBuildLearnsTitleRules(t *testing.T) {
	recs := corpus(t, 200, 1)
	p := Build(recs, tokenize.Options{})
	if p.NumRules() < 50 {
		t.Errorf("only %d rules learned from 200 records", p.NumRules())
	}
}

func TestRollbackMonotonicity(t *testing.T) {
	// More training data must never shrink the rule base (§5.1 roll-back).
	recs := corpus(t, 500, 2)
	small := Build(recs[:20], tokenize.Options{})
	large := Build(recs, tokenize.Options{})
	if large.NumRules() < small.NumRules() {
		t.Errorf("rule count shrank: %d -> %d", small.NumRules(), large.NumRules())
	}
}

func TestAccuracyImprovesWithTraining(t *testing.T) {
	recs := corpus(t, 1200, 3)
	test := recs[900:]
	var prev float64 = 1
	for _, size := range []int{20, 200, 900} {
		p := Build(recs[:size], tokenize.Options{})
		m, err := eval.EvalBlocks(p, test)
		if err != nil {
			t.Fatal(err)
		}
		rate := m.LineErrorRate()
		if rate > prev+0.01 {
			t.Errorf("error rate rose from %.4f to %.4f at size %d", prev, rate, size)
		}
		prev = rate
	}
	if prev > 0.02 {
		t.Errorf("fully trained rule parser error %.4f too high", prev)
	}
}

func TestGenericRulesOnly(t *testing.T) {
	// An untrained parser still has the hand-written generic rules.
	p := Build(nil, tokenize.Options{})
	_, blocks := p.ParseBlocks("Domain Name: x.com\nRegistrant Name: J. Doe\nCreation Date: 2014-01-01")
	want := []labels.Block{labels.Domain, labels.Registrant, labels.Date}
	for i, b := range blocks {
		if b != want[i] {
			t.Errorf("line %d: got %v, want %v", i, b, want[i])
		}
	}
}

func TestSymbolLinesAreNull(t *testing.T) {
	p := Build(nil, tokenize.Options{})
	_, blocks := p.ParseBlocks("% comment line\n# another\nDomain Name: x.com")
	if blocks[0] != labels.Null || blocks[1] != labels.Null {
		t.Errorf("symbol lines: %v", blocks)
	}
}

func TestContextPropagation(t *testing.T) {
	train := []*labels.LabeledRecord{{
		Domain: "t.com", TLD: "com", Registrar: "r",
		Text: "Registrant:\n    John Doe\n    1 Main St\n\nAdmin Contact:\n    Jane Roe",
		Lines: []labels.LabeledLine{
			{Text: "Registrant:", Block: labels.Registrant, Field: labels.FieldOther},
			{Text: "    John Doe", Block: labels.Registrant, Field: labels.FieldName},
			{Text: "    1 Main St", Block: labels.Registrant, Field: labels.FieldStreet},
			{Text: "Admin Contact:", Block: labels.Other, Field: labels.FieldOther},
			{Text: "    Jane Roe", Block: labels.Other, Field: labels.FieldOther},
		},
	}}
	p := Build(train, tokenize.Options{})
	_, blocks := p.ParseBlocks("Registrant:\n    Alice Smith\n    9 Oak Ave\n\nAdmin Contact:\n    Bob Jones")
	want := []labels.Block{labels.Registrant, labels.Registrant, labels.Registrant, labels.Other, labels.Other}
	for i := range want {
		if blocks[i] != want[i] {
			t.Errorf("line %d: got %v, want %v (blocks=%v)", i, blocks[i], want[i], blocks)
		}
	}
}

func TestContextualTitleDisambiguation(t *testing.T) {
	// The same "Name:" title means registrant or other depending on the
	// section header — the compound context rules must capture that.
	train := []*labels.LabeledRecord{{
		Domain: "t.com", TLD: "com", Registrar: "r",
		Text: "Registrant Contact:\nName: A\n\nTechnical Contact:\nName: B",
		Lines: []labels.LabeledLine{
			{Text: "Registrant Contact:", Block: labels.Registrant, Field: labels.FieldOther},
			{Text: "Name: A", Block: labels.Registrant, Field: labels.FieldName},
			{Text: "Technical Contact:", Block: labels.Other, Field: labels.FieldOther},
			{Text: "Name: B", Block: labels.Other, Field: labels.FieldOther},
		},
	}}
	p := Build(train, tokenize.Options{})
	_, blocks := p.ParseBlocks("Registrant Contact:\nName: X\n\nTechnical Contact:\nName: Y")
	if blocks[1] != labels.Registrant {
		t.Errorf("registrant-context Name got %v", blocks[1])
	}
	if blocks[3] != labels.Other {
		t.Errorf("tech-context Name got %v", blocks[3])
	}
}

func TestUnknownTitleFallsToNull(t *testing.T) {
	p := Build(nil, tokenize.Options{})
	_, blocks := p.ParseBlocks("Frobnication Level: high")
	if blocks[0] != labels.Null {
		t.Errorf("unknown title got %v, want null (the fragility the paper exploits)", blocks[0])
	}
}

func TestParseFieldsHeuristics(t *testing.T) {
	p := Build(nil, tokenize.Options{})
	text := "Registrant:\n  John Doe\n  12 Main Street\n  92122\n  United States\n  +1.8585551212\n  john@x.com"
	train := []*labels.LabeledRecord{{
		Domain: "t.com", TLD: "com", Registrar: "r",
		Text: "Registrant:\n  A B",
		Lines: []labels.LabeledLine{
			{Text: "Registrant:", Block: labels.Registrant, Field: labels.FieldOther},
			{Text: "  A B", Block: labels.Registrant, Field: labels.FieldName},
		},
	}}
	p = Build(train, tokenize.Options{})
	lines, blocks := p.ParseBlocks(text)
	fields := p.ParseFields(lines, blocks)
	want := []labels.Field{
		labels.FieldOther, labels.FieldName, labels.FieldStreet,
		labels.FieldPostcode, labels.FieldCountry, labels.FieldPhone, labels.FieldEmail,
	}
	for i := range want {
		if blocks[i] != labels.Registrant {
			t.Fatalf("line %d not labeled registrant: %v", i, blocks)
		}
		if fields[i] != want[i] {
			t.Errorf("line %d: field %v, want %v", i, fields[i], want[i])
		}
	}
}

func TestWorseThanStatisticalOnNewTLDs(t *testing.T) {
	recs := corpus(t, 600, 5)
	p := Build(recs, tokenize.Options{})
	totalErr := 0
	tldsWithErr := 0
	for _, tld := range synth.NewTLDs() {
		rec := synth.GenerateNewTLD(tld, 1, 7)[0].Labeled()
		_, blocks := p.ParseBlocks(rec.Text)
		errs := 0
		for i := range rec.Lines {
			if blocks[i] != rec.Lines[i].Block {
				errs++
			}
		}
		totalErr += errs
		if errs > 0 {
			tldsWithErr++
		}
	}
	// Table 2: the rule-based parser fails on most new TLDs.
	if tldsWithErr < 6 {
		t.Errorf("rule-based parser erred on only %d/12 new TLDs; Table 2 shows ~10", tldsWithErr)
	}
	if totalErr == 0 {
		t.Error("rule-based parser made no errors on unseen TLDs — too strong to be the paper's baseline")
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Registrant  Name":  "registrant name",
		"[Registrant Name]": "registrant name",
		"registrant_name":   "registrant name",
		"E-MAIL":            "e mail",
	}
	for in, want := range cases {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// NumRules reports how many learned rules the parser holds (titles +
// headers + boilerplate lines), for the §5.1 roll-back comparisons.
func (p *Parser) NumRules() int {
	return len(p.titleBlock) + len(p.headers) + len(p.rawBlock)
}
