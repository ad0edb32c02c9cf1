package synth

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/labels"
	"repro/internal/tokenize"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{N: 50, Seed: 9})
	b := Generate(Config{N: 50, Seed: 9})
	for i := range a {
		if a[i].Reg.Domain != b[i].Reg.Domain || a[i].Reg.RegistrarName != b[i].Reg.RegistrarName {
			t.Fatalf("domain %d differs between runs", i)
		}
		if a[i].Render().Text != b[i].Render().Text {
			t.Fatalf("rendered text %d differs between runs", i)
		}
	}
}

func TestGenerateUniqueDomains(t *testing.T) {
	domains := Generate(Config{N: 2000, Seed: 10})
	seen := make(map[string]bool)
	for _, d := range domains {
		if seen[d.Reg.Domain] {
			t.Fatalf("duplicate domain %s", d.Reg.Domain)
		}
		seen[d.Reg.Domain] = true
		if !strings.HasSuffix(d.Reg.Domain, ".com") {
			t.Fatalf("non-com domain %s", d.Reg.Domain)
		}
	}
}

// TestLabeledAlignment is the generator-wide version of the core
// invariant: labels always align with the tokenizer's retained lines.
func TestLabeledAlignment(t *testing.T) {
	domains := Generate(Config{N: 1000, Seed: 11, DriftFraction: 0.2, BrandFraction: 0.05})
	for _, d := range domains {
		rec := d.Labeled()
		if err := rec.Validate(); err != nil {
			t.Fatalf("%s: %v", rec.Domain, err)
		}
		lines := tokenize.Tokenize(rec.Text, tokenize.Options{})
		if len(lines) != len(rec.Lines) {
			t.Fatalf("%s (schema %s): %d lines vs %d labels",
				rec.Domain, d.Schema.ID, len(lines), len(rec.Lines))
		}
	}
}

func TestLabeledAlignmentProperty(t *testing.T) {
	f := func(seed int64, drift bool) bool {
		cfg := Config{N: 30, Seed: seed}
		if drift {
			cfg.DriftFraction = 0.5
		}
		for _, d := range Generate(cfg) {
			rec := d.Labeled()
			if len(tokenize.Tokenize(rec.Text, tokenize.Options{})) != len(rec.Lines) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCreationYearRange(t *testing.T) {
	for _, d := range Generate(Config{N: 500, Seed: 12}) {
		y := d.Reg.Created.Year()
		if y < 1985 || y > 2014 {
			t.Fatalf("creation year %d out of range", y)
		}
		if !d.Reg.Expires.After(d.Reg.Created) {
			t.Fatalf("expiry %v not after creation %v", d.Reg.Expires, d.Reg.Created)
		}
		if d.Reg.Updated.Before(d.Reg.Created) {
			t.Fatalf("update %v before creation %v", d.Reg.Updated, d.Reg.Created)
		}
	}
}

func TestCreationYearsGrow(t *testing.T) {
	// Figure 4a: later years hold more registrations.
	counts := make(map[int]int)
	for _, d := range Generate(Config{N: 20000, Seed: 13}) {
		counts[d.Reg.Created.Year()]++
	}
	if counts[2014] <= counts[2000] {
		t.Errorf("2014 (%d) should far exceed 2000 (%d)", counts[2014], counts[2000])
	}
	if counts[2014] <= counts[2010] {
		t.Errorf("2014 (%d) should exceed 2010 (%d)", counts[2014], counts[2010])
	}
}

func TestRegistrarSharesRoughlyMatchTable5(t *testing.T) {
	domains := Generate(Config{N: 20000, Seed: 14})
	counts := make(map[string]int)
	for _, d := range domains {
		counts[d.Reg.RegistrarName]++
	}
	goDaddy := float64(counts["GoDaddy.com, LLC"]) / float64(len(domains))
	if goDaddy < 0.25 || goDaddy > 0.50 {
		t.Errorf("GoDaddy share %.3f, want roughly a third (Table 5: 34%%)", goDaddy)
	}
	if counts["GoDaddy.com, LLC"] <= counts["eNom, Inc."] {
		t.Error("GoDaddy should dominate eNom")
	}
}

func TestPrivacyRateNearPaper(t *testing.T) {
	domains := Generate(Config{N: 20000, Seed: 15})
	privacy := 0
	for _, d := range domains {
		if d.Reg.Privacy {
			privacy++
			if d.Reg.PrivacyService == "" {
				t.Fatal("privacy domain without service name")
			}
		}
	}
	rate := float64(privacy) / float64(len(domains))
	if rate < 0.10 || rate > 0.32 {
		t.Errorf("privacy rate %.3f, paper reports ~20%%", rate)
	}
}

func TestPrivacyIdentityMasksRegistrant(t *testing.T) {
	for _, d := range Generate(Config{N: 3000, Seed: 16}) {
		if d.Reg.Privacy {
			if !strings.Contains(d.Reg.Registrant.Name, d.Reg.PrivacyService) &&
				d.Reg.Registrant.Name != d.Reg.PrivacyService {
				t.Fatalf("privacy record exposes name %q (service %q)",
					d.Reg.Registrant.Name, d.Reg.PrivacyService)
			}
		}
	}
}

func TestBlacklistOnly2014(t *testing.T) {
	for _, d := range Generate(Config{N: 5000, Seed: 17}) {
		if d.Blacklisted && d.Reg.Created.Year() < 2014 {
			t.Fatalf("blacklisted domain created %d", d.Reg.Created.Year())
		}
	}
}

func TestBlacklistSkew(t *testing.T) {
	// Table 8/9: GMO (Japan) is over-represented on the DBL.
	domains := Generate(Config{N: 60000, Seed: 18})
	bl := make(map[string]int)
	tot := make(map[string]int)
	for _, d := range domains {
		if d.Reg.Created.Year() != 2014 {
			continue
		}
		tot[d.Reg.RegistrarName]++
		if d.Blacklisted {
			bl[d.Reg.RegistrarName]++
		}
	}
	gmoRate := float64(bl["GMO Internet, Inc. d/b/a Onamae.com"]) / float64(tot["GMO Internet, Inc. d/b/a Onamae.com"]+1)
	gdRate := float64(bl["GoDaddy.com, LLC"]) / float64(tot["GoDaddy.com, LLC"]+1)
	if gmoRate <= gdRate {
		t.Errorf("GMO blacklist rate (%.4f) should exceed GoDaddy's (%.4f)", gmoRate, gdRate)
	}
}

func TestBrandFraction(t *testing.T) {
	domains := Generate(Config{N: 20000, Seed: 19, BrandFraction: 0.05})
	brands := 0
	for _, d := range domains {
		if d.BrandOrg != "" {
			brands++
			if d.Reg.Registrant.Org != d.BrandOrg {
				t.Fatalf("brand org not reflected in registrant: %q vs %q",
					d.Reg.Registrant.Org, d.BrandOrg)
			}
		}
	}
	if brands == 0 {
		t.Fatal("no brand domains generated")
	}
	// Amazon should lead the brand counts (Table 4).
	counts := make(map[string]int)
	for _, d := range domains {
		if d.BrandOrg != "" {
			counts[d.BrandOrg]++
		}
	}
	if counts["Amazon Technologies, Inc."] == 0 {
		t.Error("Amazon absent from brand domains")
	}
}

func TestCountryMixShifts2014(t *testing.T) {
	domains := Generate(Config{N: 60000, Seed: 20})
	var cnAll, allN, cn2014, n2014 int
	for _, d := range domains {
		if d.Reg.Privacy {
			continue
		}
		cc := d.Reg.Registrant.CountryCode
		allN++
		if cc == "CN" {
			cnAll++
		}
		if d.Reg.Created.Year() == 2014 {
			n2014++
			if cc == "CN" {
				cn2014++
			}
		}
	}
	rateAll := float64(cnAll) / float64(allN)
	rate2014 := float64(cn2014) / float64(n2014)
	if rate2014 <= rateAll {
		t.Errorf("China share should grow in 2014: %.3f vs %.3f (Table 3)", rate2014, rateAll)
	}
}

func TestGenerateNewTLD(t *testing.T) {
	for _, tld := range NewTLDs() {
		ds := GenerateNewTLD(tld, 3, 99)
		if len(ds) != 3 {
			t.Fatalf("%s: got %d domains", tld, len(ds))
		}
		for _, d := range ds {
			if !strings.HasSuffix(d.Reg.Domain, "."+tld) {
				t.Errorf("%s: domain %s has wrong suffix", tld, d.Reg.Domain)
			}
			if d.Schema.TLD != tld {
				t.Errorf("%s: schema %s", tld, d.Schema.ID)
			}
			rec := d.Labeled()
			if len(tokenize.Tokenize(rec.Text, tokenize.Options{})) != len(rec.Lines) {
				t.Errorf("%s: label misalignment", tld)
			}
		}
	}
}

func TestRegistrarSchemaReferencesValid(t *testing.T) {
	for _, r := range Registrars() {
		if r.SchemaID == "" {
			t.Errorf("registrar %s has no schema", r.Name)
		}
	}
	// Generation would panic on an unknown schema; do a tiny run.
	Generate(Config{N: len(Registrars()) * 4, Seed: 21})
}

func TestUnknownCountryRecordsOmitCountryLine(t *testing.T) {
	domains := Generate(Config{N: 5000, Seed: 22})
	sawUnknown := false
	for _, d := range domains {
		if d.Reg.Privacy || d.Reg.Registrant.CountryCode != "" {
			continue
		}
		sawUnknown = true
		rec := d.Labeled()
		for _, ln := range rec.Lines {
			if ln.Block == labels.Registrant && ln.Field == labels.FieldCountry {
				t.Fatalf("%s: unknown-country record has a country line %q", rec.Domain, ln.Text)
			}
		}
	}
	if !sawUnknown {
		t.Error("no unknown-country registrants generated (Table 3 needs ~3%)")
	}
}

// Registrars returns the simulated registrar pool. Shares follow Table 5;
// privacy rates are back-solved from Tables 5–7; blacklist factors from
// Table 9.
func Registrars() []*RegistrarInfo { return registrarPool }
