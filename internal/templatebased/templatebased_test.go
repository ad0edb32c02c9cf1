package templatebased

import (
	"errors"
	"testing"

	"repro/internal/labels"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

func TestParseMatchesTrainingDistribution(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 600, Seed: 31})
	c := Compile(recs[:400], tokenize.Options{})
	okDocs, covered := 0, 0
	var lineErr, lines int
	for _, rec := range recs[400:] {
		if !c.HasTemplate(rec.Registrar) {
			continue
		}
		covered++
		m, err := c.MatchRegistrar(rec.Registrar, rec.Text)
		if err != nil {
			continue
		}
		okDocs++
		for i := range rec.Lines {
			lines++
			if m.Blocks[i] != rec.Lines[i].Block {
				lineErr++
			}
		}
	}
	if covered == 0 {
		t.Fatal("no coverage at all")
	}
	if rate := float64(okDocs) / float64(covered); rate < 0.9 {
		t.Errorf("in-distribution success only %.3f", rate)
	}
	if lines > 0 && float64(lineErr)/float64(lines) > 0.01 {
		t.Errorf("line error %.4f on successfully parsed records", float64(lineErr)/float64(lines))
	}
}

func TestNoTemplateFailsCrisply(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 50, Seed: 32})
	c := Compile(recs, tokenize.Options{})
	_, err := c.MatchRegistrar("Unknown Registrar Ltd.", "Domain Name: x.com")
	if !errors.Is(err, ErrNoTemplate) {
		t.Errorf("got %v, want ErrNoTemplate", err)
	}
}

func TestDriftBreaksTemplates(t *testing.T) {
	// §2.3: minor format changes cause template parsers to fail on the
	// vast majority of records.
	snapshot := synth.GenerateLabeled(synth.Config{N: 800, Seed: 33})
	c := Compile(snapshot, tokenize.Options{})
	drifted := synth.GenerateLabeled(synth.Config{N: 400, Seed: 34, DriftFraction: 1.0})
	fails := 0
	covered := 0
	for _, rec := range drifted {
		if !c.HasTemplate(rec.Registrar) {
			continue
		}
		covered++
		if _, err := c.MatchRegistrar(rec.Registrar, rec.Text); err != nil {
			if !errors.Is(err, ErrMismatch) {
				t.Fatalf("unexpected error type: %v", err)
			}
			fails++
		}
	}
	if covered == 0 {
		t.Fatal("no covered drifted records")
	}
	if rate := float64(fails) / float64(covered); rate < 0.5 {
		t.Errorf("only %.3f of drifted records failed; template fragility should dominate", rate)
	}
}

// TestCoverage checks the §2.3 coverage measure Sec23 takes from
// HasTemplate: templates learned from half a corpus cover most of the
// other half, and an empty template set covers nothing.
func TestCoverage(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 500, Seed: 35})
	c := Compile(recs[:250], tokenize.Options{})
	covered := 0
	for _, rec := range recs[250:] {
		if c.HasTemplate(rec.Registrar) {
			covered++
		}
	}
	if cov := float64(covered) / 250; cov <= 0.5 || cov > 1.0 {
		t.Errorf("coverage %.3f out of plausible range", cov)
	}
	empty := Compile(nil, tokenize.Options{})
	for _, rec := range recs {
		if empty.HasTemplate(rec.Registrar) {
			t.Fatalf("empty template set covers %q", rec.Registrar)
		}
	}
}

func TestParseFieldsUsesTemplateTitles(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 300, Seed: 36})
	c := Compile(recs, tokenize.Options{})
	// Find a record with titled registrant lines.
	for _, rec := range recs {
		m, err := c.MatchRegistrar(rec.Registrar, rec.Text)
		if err != nil {
			continue
		}
		for i := range rec.Lines {
			if rec.Lines[i].Block != labels.Registrant || !m.Lines[i].HasSep || m.Lines[i].Value == "" {
				continue
			}
			if m.Blocks[i] == labels.Registrant && m.Fields[i] != rec.Lines[i].Field {
				t.Errorf("record %s line %d: field %v, want %v",
					rec.Domain, i, m.Fields[i], rec.Lines[i].Field)
			}
		}
		return // one thorough record is enough
	}
	t.Fatal("no record parsed cleanly")
}

func TestParseFieldsNoTemplate(t *testing.T) {
	c := Compile(nil, tokenize.Options{})
	if _, err := c.MatchRegistrar("nobody", "Registrar: nobody"); !errors.Is(err, ErrNoTemplate) {
		t.Errorf("got %v, want ErrNoTemplate", err)
	}
}

func TestNumTemplatesGrowsWithRegistrars(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 400, Seed: 37})
	small := Compile(recs[:40], tokenize.Options{})
	large := Compile(recs, tokenize.Options{})
	if large.NumTemplates() < small.NumTemplates() {
		t.Errorf("template count shrank: %d -> %d", small.NumTemplates(), large.NumTemplates())
	}
}
