package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rdap"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
	"repro/internal/templates"
)

func TestReadRecords(t *testing.T) {
	content := `%% DOMAIN a.com SERVER whois.x.com REGISTRAR GoDaddy.com, LLC
Domain Name: a.com
Registrant Name: John

%% END
%% DOMAIN b.com SERVER whois.y.com REGISTRAR eNom, Inc.
Domain Name: b.com
%% END
`
	path := filepath.Join(t.TempDir(), "records.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	a := recs["a.com"]
	if a.registrar != "GoDaddy.com, LLC" {
		t.Errorf("registrar %q", a.registrar)
	}
	if a.text == "" || a.text[:12] != "Domain Name:" {
		t.Errorf("text %q", a.text)
	}
	b := recs["b.com"]
	if b.registrar != "eNom, Inc." {
		t.Errorf("registrar %q", b.registrar)
	}
}

func TestReadRecordsLegacyHeaderWithoutRegistrar(t *testing.T) {
	content := "%% DOMAIN c.com SERVER whois.z.com\nline\n%% END\n"
	path := filepath.Join(t.TempDir(), "records.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs["c.com"].registrar != "" {
		t.Errorf("registrar %q, want empty", recs["c.com"].registrar)
	}
}

// faithfulParse builds the parsed record a perfect pipeline would
// extract for a registration, for consistency-mode tests that need a
// store without training a CRF.
func faithfulParse(reg *templates.Registration) *core.ParsedRecord {
	return &core.ParsedRecord{
		DomainName:  strings.ToLower(reg.Domain),
		Registrar:   reg.RegistrarName,
		CreatedDate: reg.Created.Format("02-Jan-2006"),
		UpdatedDate: reg.Updated.Format("02-Jan-2006"),
		ExpiresDate: reg.Expires.Format("02-Jan-2006"),
		Registrant: core.Contact{
			Name:    reg.Registrant.Name,
			Email:   reg.Registrant.Email,
			Country: reg.Registrant.CountryName,
		},
		NameServers: append([]string(nil), reg.NameServers...),
		Statuses:    append([]string(nil), reg.Statuses...),
	}
}

// TestRunConsistency drives the -consistency mode end to end over a
// synthetic store: a faithful RDAP source audits clean, a divergent one
// surfaces conflicts, flags the drifting registrar, and honors -where.
func TestRunConsistency(t *testing.T) {
	const n, seed = 200, 5
	domains := synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02})
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range domains {
		pr := faithfulParse(&d.Reg)
		if err := st.Append(&store.Record{Domain: d.Reg.Domain, Parsed: pr, Facts: survey.FactsFrom(pr, false)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var clean bytes.Buffer
	if err := runConsistency(&clean, dir, "", consistency.SyntheticSource(n, seed), nil); err != nil {
		t.Fatal(err)
	}
	out := clean.String()
	if !strings.Contains(out, fmt.Sprintf("%d records, 0 with conflicts", n)) {
		t.Errorf("clean audit output:\n%s", out)
	}
	if strings.Contains(out, "drift-flagged") {
		t.Errorf("clean audit flagged registrars:\n%s", out)
	}
	for _, want := range []string{"Cross-protocol conflicts by field", "Agreement taxonomy", "Cross-protocol conflicts by registrar"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Divergent RDAP: the busiest registrar's expiry slips a year.
	counts := map[string]int{}
	for _, d := range domains {
		counts[d.Reg.RegistrarName]++
	}
	target, best := "", 0
	for name, c := range counts {
		if c > best {
			target, best = name, c
		}
	}
	base := consistency.SyntheticSource(n, seed)
	divergent := consistency.RDAPSource(func(domain string) (*rdap.Domain, bool) {
		d, ok := base(domain)
		if !ok || d.RegistrarName() != target {
			return d, ok
		}
		mut := *d
		mut.Events = append([]rdap.Event(nil), d.Events...)
		for i := range mut.Events {
			if mut.Events[i].EventAction == "expiration" {
				mut.Events[i].EventDate = mut.Events[i].EventDate.AddDate(1, 0, 0)
			}
		}
		return &mut, true
	})
	var drift bytes.Buffer
	if err := runConsistency(&drift, dir, "", divergent, nil); err != nil {
		t.Fatal(err)
	}
	out = drift.String()
	if !strings.Contains(out, "drift-flagged registrars: "+target) {
		t.Errorf("divergent audit did not flag %s:\n%s", target, out)
	}
	if strings.Contains(out, " 0 with conflicts") {
		t.Errorf("divergent audit reported no conflicts:\n%s", out)
	}

	// A -where cohort excluding the divergent registrar audits clean.
	other := ""
	for name := range counts {
		if name != target {
			other = name
			break
		}
	}
	var cohort bytes.Buffer
	if err := runConsistency(&cohort, dir, "registrar="+other, divergent, nil); err != nil {
		t.Fatal(err)
	}
	if out := cohort.String(); !strings.Contains(out, " 0 with conflicts") {
		t.Errorf("cohort audit of %s found conflicts:\n%s", other, out)
	}

	// Bad predicates and unreadable RDAP sides surface as errors.
	if err := runConsistency(&cohort, dir, "bogus=1", divergent, nil); err == nil {
		t.Error("bad predicate accepted")
	}
}

// syntheticFacts builds a deterministic facts corpus covering every
// aggregate: countries (incl. unknown), 2014 cohorts, privacy services,
// blacklisted domains, brand orgs, and the Figure 5 registrars.
func syntheticFacts(n int) []survey.Facts {
	countries := []string{"United States", "China", "United Kingdom", "Germany", "France", "Japan", ""}
	registrars := []string{"GoDaddy.com, LLC", "eNom, Inc.", "HiChina Zhicheng", "GMO Internet", "Melbourne IT", "Tucows"}
	orgs := []string{"Google Inc.", "HugeDomains.com", "", "Microsoft Corporation", "Sedo GmbH"}
	svcs := []string{"WhoisGuard", "Domains By Proxy", "Whois Privacy Protection"}
	out := make([]survey.Facts, 0, n)
	for i := 0; i < n; i++ {
		f := survey.Facts{
			Domain:      fmt.Sprintf("domain%05d.com", i),
			Registrar:   registrars[i%len(registrars)],
			Country:     countries[i%len(countries)],
			CreatedYear: 1996 + i%20,
			Org:         orgs[i%len(orgs)],
			Blacklisted: i%13 == 0,
		}
		if i%7 == 3 {
			f.Privacy = true
			f.PrivacySvc = svcs[i%len(svcs)]
		}
		if i%19 == 0 {
			f.CreatedYear = 0 // unparseable date
		}
		out = append(out, f)
	}
	return out
}

// TestStoreSurveyMatchesInMemory is the acceptance check for the
// persistence layer: the survey rendered by streaming a store directory
// must be byte-identical to the survey computed directly over the same
// facts in memory.
func TestStoreSurveyMatchesInMemory(t *testing.T) {
	facts := syntheticFacts(3000)

	// In-memory path.
	direct := survey.New(facts)
	var wantBuf bytes.Buffer
	renderSurvey(&wantBuf, direct, true)

	// Store round-trip path: persist, reopen, stream.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentBytes: 16 << 10}) // force multi-segment
	if err != nil {
		t.Fatal(err)
	}
	for i := range facts {
		if err := st.Append(&store.Record{Domain: facts[i].Domain, Facts: facts[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	streamed := survey.New(nil)
	n, err := surveyFromStore(dir, streamed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(facts)) {
		t.Fatalf("streamed %d records, want %d", n, len(facts))
	}
	var gotBuf bytes.Buffer
	renderSurvey(&gotBuf, streamed, true)

	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("store-streamed survey differs from in-memory survey:\n--- in-memory ---\n%s\n--- streamed ---\n%s",
			wantBuf.String(), gotBuf.String())
	}
	if wantBuf.Len() == 0 {
		t.Fatal("rendered survey is empty")
	}
}

// TestSyntheticSurveyAttributesRegistrars: -synthetic joins each parse
// with its thin record, as the paper's two-step crawl does (§4.1), so
// schemas whose thick record carries no registrar line (Network
// Solutions and other legacy formats) still count under their
// registrar in Table 5 instead of (Unknown).
func TestSyntheticSurveyAttributesRegistrars(t *testing.T) {
	p, _, err := experiments.TrainParser(synth.GenerateLabeled(synth.Config{N: 200, Seed: 7}), experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := survey.New(nil)
	persisted := 0
	surveySynthetic(s, 600, 2, func(texts []string) []*core.ParsedRecord { return p.ParseAll(texts, 0) },
		func(string, string, *core.ParsedRecord, survey.Facts) { persisted++ })
	if persisted != s.Len() || s.Len() != 600 {
		t.Fatalf("surveyed %d, persisted %d, want 600", s.Len(), persisted)
	}
	allTime, _ := s.Table5()
	for _, r := range allTime {
		if r.Key == "(Unknown)" && r.Pct > 1 {
			t.Fatalf("(Unknown) registrar share %.1f%%, want <= 1%%", r.Pct)
		}
	}
}
