package experiments

import (
	"fmt"
	"strings"

	"repro/internal/survey"
	"repro/internal/synth"
)

// SurveyResult carries the §6 aggregates plus parse-fidelity checks
// comparing parsed facts against the generator's ground truth.
type SurveyResult struct {
	Survey *survey.Survey
	// Fidelity: fraction of records where the parsed value matches the
	// seeded ground truth.
	RegistrarMatch float64
	CountryMatch   float64
	YearMatch      float64
	PrivacyMatch   float64
	Domains        int
}

// RunSurvey generates the survey corpus, parses every record with a
// CRF trained on a small labeled sample, and aggregates §6's tables.
func RunSurvey(o Options) (SurveyResult, string, error) {
	o = o.Defaults()
	recs := Corpus(o)
	n := min(1000, len(recs))
	parser, _, err := TrainParser(recs[:n], o)
	if err != nil {
		return SurveyResult{}, "", fmt.Errorf("experiments: survey: %w", err)
	}

	domains := synth.Generate(synth.Config{
		N: o.SurveySize, Seed: o.Seed + 99, BrandFraction: 0.02,
	})

	var res SurveyResult
	res.Domains = len(domains)
	var regOK, ctryOK, yearOK, privOK int

	texts := make([]string, len(domains))
	for i, d := range domains {
		texts[i] = d.Render().Text
	}
	parsed := parser.ParseAll(texts, 0)

	facts := make([]survey.Facts, 0, len(domains))
	for i, d := range domains {
		pr := parsed[i]
		f := survey.FactsWithThin(pr, d.Reg.RegistrarName, d.Blacklisted)
		facts = append(facts, f)

		if f.Registrar == d.Reg.RegistrarName {
			regOK++
		}
		truthCountry := survey.CanonicalCountry(d.Reg.Registrant.CountryCode)
		if d.Reg.Privacy || f.Country == truthCountry {
			ctryOK++
		}
		if f.CreatedYear == d.Reg.Created.Year() {
			yearOK++
		}
		if f.Privacy == d.Reg.Privacy {
			privOK++
		}
	}
	res.RegistrarMatch = float64(regOK) / float64(len(domains))
	res.CountryMatch = float64(ctryOK) / float64(len(domains))
	res.YearMatch = float64(yearOK) / float64(len(domains))
	res.PrivacyMatch = float64(privOK) / float64(len(domains))
	res.Survey = survey.New(facts)

	var brands []string
	for _, b := range BrandNames() {
		brands = append(brands, b)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "surveyed %d parsed com records (paper: 102M)\n", res.Domains)
	fmt.Fprintf(&b, "parse fidelity vs ground truth: registrar %.1f%%, country %.1f%%, year %.1f%%, privacy flag %.1f%%\n\n",
		100*res.RegistrarMatch, 100*res.CountryMatch, 100*res.YearMatch, 100*res.PrivacyMatch)

	t3all, t3new := res.Survey.Table3()
	b.WriteString(survey.RenderRows("Table 3 (left) — registrant countries, all time", t3all))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("Table 3 (right) — registrant countries, created 2014", t3new))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("Table 4 — brand companies with the most com domains", res.Survey.Table4(brands)))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("§6.1 — organizations with the most com domains (sellers lead)", res.Survey.TopOrgs(8)))
	b.WriteByte('\n')
	t5all, t5new := res.Survey.Table5()
	b.WriteString(survey.RenderRows("Table 5 (left) — registrars, all time", t5all))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("Table 5 (right) — registrars, created 2014", t5new))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("Table 6 — registrars of privacy-protected domains", res.Survey.Table6()))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("Table 7 — privacy protection services", res.Survey.Table7()))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("Table 8 — registrant countries of DBL-listed 2014 domains", res.Survey.Table8()))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRows("Table 9 — registrars of DBL-listed 2014 domains", res.Survey.Table9()))
	b.WriteByte('\n')
	b.WriteString(survey.RenderHistogram("Figure 4a — domains created per year", res.Survey.Figure4a()))
	b.WriteByte('\n')
	b.WriteString(survey.RenderMixes("Figure 4b — country/privacy proportions by creation year",
		res.Survey.Figure4b(1995), survey.Figure4bLabels()))
	b.WriteByte('\n')
	b.WriteString(survey.RenderRegistrarMixes("Figure 5 — top registrant countries for selected registrars",
		res.Survey.Figure5([]string{"eNom", "HiChina", "GMO", "Melbourne"})))
	return res, section("§6 — surveying .com (Tables 3-9, Figures 4-5)", b.String()), nil
}

// BrandNames lists the Table 4 brand organizations the generator seeds.
func BrandNames() []string {
	return []string{
		"Amazon Technologies, Inc.", "AOL Inc.", "Microsoft Corporation",
		"21st Century Fox America, Inc.", "Warner Bros. Entertainment Inc.",
		"Yahoo! Inc.", "Disney Enterprises, Inc.", "Google Inc.",
		"AT&T Services, Inc.", "eBay Inc.", "Nike, Inc.",
	}
}
