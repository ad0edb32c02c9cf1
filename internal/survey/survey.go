// Package survey implements the §6 analysis of the paper: given parsed
// WHOIS records it derives per-domain facts (registrant country, registrar,
// creation year, privacy protection, organization) and aggregates them
// into the paper's Tables 3–9 and Figures 4–5.
package survey

import (
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
)

// Facts are the normalized per-domain values the survey aggregates.
type Facts struct {
	Domain      string
	Registrar   string
	Country     string // canonical country name; "" = unknown
	CreatedYear int    // 0 if unparseable
	Privacy     bool
	PrivacySvc  string // service name when Privacy
	Org         string
	Blacklisted bool // supplied externally (DBL membership)
	// ModelVersion identifies the parser model that produced these facts
	// ("" when unparsed or parsed before model stamping existed). Formats
	// drift and models are retrained mid-corpus, so drift analysis must
	// be able to segment facts by the model that extracted them.
	ModelVersion string
}

// privacyKeywords is the "small set of keywords" of §6.3 matched against
// the registrant name and organization.
var privacyKeywords = []string{
	"privacy", "private", "proxy", "whoisguard", "protect",
	"fbo registrant", "aliyun", "muumuu", "whois agent",
	"private registration", "happy dreamhost",
}

// IsPrivacyProtected applies the keyword test to a name/org pair.
func IsPrivacyProtected(name, org string) bool {
	s := strings.ToLower(name + " " + org)
	for _, k := range privacyKeywords {
		if strings.Contains(s, k) {
			return true
		}
	}
	return false
}

// CanonicalCountry normalizes a registrant country value ("US", "us",
// "United States") to a canonical name; unknown values map to "". The
// canonicalizer itself lives in internal/norm, shared with the
// cross-protocol consistency engine.
func CanonicalCountry(v string) string { return norm.Country(v) }

// ParseDate parses a WHOIS date string in any of the ecosystem's formats
// (see norm.DateLayouts). As a last resort it scans for a plausible
// 4-digit year.
func ParseDate(s string) (time.Time, bool) { return norm.ParseDate(s) }

// FactsWithThin is FactsFrom joined with the thin record, as in the
// paper's two-step crawl (§4.1): when the thick record names no
// registrar — legacy formats such as Network Solutions' omit it — the
// registrar comes from the thin record's "Registrar:" line.
func FactsWithThin(pr *core.ParsedRecord, thinRegistrar string, blacklisted bool) Facts {
	f := FactsFrom(pr, blacklisted)
	if f.Registrar == "" {
		f.Registrar = thinRegistrar
	}
	return f
}

// FactsFrom derives survey facts from one parsed record. The blacklist
// bit comes from the DBL feed, not from the record.
func FactsFrom(pr *core.ParsedRecord, blacklisted bool) Facts {
	f := Facts{
		Domain:       pr.DomainName,
		Registrar:    pr.Registrar,
		Org:          pr.Registrant.Org,
		Blacklisted:  blacklisted,
		ModelVersion: pr.ModelVersion,
	}
	f.Country = CanonicalCountry(pr.Registrant.Country)
	if t, ok := ParseDate(pr.CreatedDate); ok {
		f.CreatedYear = t.Year()
	}
	if IsPrivacyProtected(pr.Registrant.Name, pr.Registrant.Org) {
		f.Privacy = true
		f.PrivacySvc = pr.Registrant.Name
		if f.PrivacySvc == "" {
			f.PrivacySvc = pr.Registrant.Org
		}
	}
	return f
}

// Row is one line of a ranked table.
type Row struct {
	Key   string
	Count int
	Pct   float64
}

// rank turns a count map into rows sorted by descending count, keeping the
// top n and folding the rest into "(Other)". Keys equal to "" become
// unknownLabel and are listed after (Other), as in the paper's tables.
func rank(counts map[string]int, n int, unknownLabel string) []Row {
	var total, unknown int
	type kv struct {
		k string
		v int
	}
	var all []kv
	for k, v := range counts {
		total += v
		if k == "" {
			unknown += v
			continue
		}
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	var rows []Row
	var other int
	for i, e := range all {
		if i < n {
			rows = append(rows, Row{Key: e.k, Count: e.v})
		} else {
			other += e.v
		}
	}
	if other > 0 {
		rows = append(rows, Row{Key: "(Other)", Count: other})
	}
	if unknown > 0 && unknownLabel != "" {
		rows = append(rows, Row{Key: unknownLabel, Count: unknown})
	}
	if total > 0 {
		for i := range rows {
			rows[i].Pct = 100 * float64(rows[i].Count) / float64(total)
		}
	}
	rows = append(rows, Row{Key: "Total", Count: total, Pct: 100})
	return rows
}

// Survey aggregates facts incrementally: Add folds each domain into
// count maps and discards the facts themselves, so memory is bounded by
// the number of distinct registrars, countries, organizations, and years
// — not by corpus size. At the paper's 102M-domain scale this is the
// difference between streaming a store directory and materializing a
// hundred-gigabyte slice; every table and figure reads the same as the
// slice-backed implementation it replaces.
type Survey struct {
	n int // domains surveyed

	countriesAll  map[string]int            // !Privacy; "" = unknown
	countries2014 map[string]int            // !Privacy && CreatedYear == 2014
	orgsAll       map[string]int            // every fact with Org != "" (Table 4 brand match)
	orgsPublic    map[string]int            // !Privacy && Org != "" (TopOrgs)
	registrars    map[string]int            // every fact
	regs2014      map[string]int            // CreatedYear == 2014
	regsPrivate   map[string]int            // Privacy
	privacySvcs   map[string]int            // Privacy
	bl2014Country map[string]int            // Blacklisted && 2014 && !Privacy
	bl2014Regs    map[string]int            // Blacklisted && 2014
	years         map[int]int               // CreatedYear > 0
	yearLabels    map[int]map[string]int    // Figure 4b label mix per year
	regCountry    map[string]map[string]int // !Privacy: registrar -> country ("[]" = unknown)
}

// New builds a survey over the given facts.
func New(facts []Facts) *Survey {
	s := &Survey{}
	for _, f := range facts {
		s.Add(f)
	}
	return s
}

func bump(m *map[string]int, k string) {
	if *m == nil {
		*m = make(map[string]int)
	}
	(*m)[k]++
}

// Add folds one domain's facts into the aggregates.
func (s *Survey) Add(f Facts) {
	s.n++
	bump(&s.registrars, f.Registrar)
	if f.CreatedYear == 2014 {
		bump(&s.regs2014, f.Registrar)
	}
	if f.Org != "" {
		bump(&s.orgsAll, f.Org)
	}
	if f.Privacy {
		bump(&s.regsPrivate, f.Registrar)
		bump(&s.privacySvcs, f.PrivacySvc)
	} else {
		bump(&s.countriesAll, f.Country)
		if f.CreatedYear == 2014 {
			bump(&s.countries2014, f.Country)
		}
		if f.Org != "" {
			bump(&s.orgsPublic, f.Org)
		}
		country := f.Country
		if country == "" {
			country = "[]"
		}
		if s.regCountry == nil {
			s.regCountry = make(map[string]map[string]int)
		}
		m := s.regCountry[f.Registrar]
		if m == nil {
			m = make(map[string]int)
			s.regCountry[f.Registrar] = m
		}
		m[country]++
	}
	if f.Blacklisted && f.CreatedYear == 2014 {
		bump(&s.bl2014Regs, f.Registrar)
		if !f.Privacy {
			bump(&s.bl2014Country, f.Country)
		}
	}
	if f.CreatedYear > 0 {
		if s.years == nil {
			s.years = make(map[int]int)
		}
		s.years[f.CreatedYear]++
		if s.yearLabels == nil {
			s.yearLabels = make(map[int]map[string]int)
		}
		m := s.yearLabels[f.CreatedYear]
		if m == nil {
			m = make(map[string]int)
			s.yearLabels[f.CreatedYear] = m
		}
		m[figure4bLabel(f)]++
	}
}

// figure4bLabel buckets one domain for Figure 4b.
func figure4bLabel(f Facts) string {
	if f.Privacy {
		return "Private"
	}
	if f.Country == "" {
		return "Unknown"
	}
	for _, c := range figure4bCountries {
		if f.Country == c {
			return c
		}
	}
	return "Other"
}

// Len reports the number of domains surveyed.
func (s *Survey) Len() int { return s.n }

// Table3 ranks registrant countries (privacy-protected domains excluded,
// unknown-country counted) for all time and for 2014 only.
func (s *Survey) Table3() (allTime, in2014 []Row) {
	return rank(s.countriesAll, 10, "(Unknown)"), rank(s.countries2014, 10, "(Unknown)")
}

// Table4 counts domains per known brand organization, ranked.
func (s *Survey) Table4(brands []string) []Row {
	canon := make(map[string]string)
	for _, b := range brands {
		canon[strings.ToLower(b)] = b
	}
	counts := make(map[string]int)
	for org, c := range s.orgsAll {
		if b, ok := canon[strings.ToLower(org)]; ok {
			counts[b] += c
		}
	}
	var rows []Row
	for b, c := range counts {
		rows = append(rows, Row{Key: b, Count: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Key < rows[j].Key
	})
	return rows
}

// TopOrgs ranks ALL registrant organizations by domain count — the §6.1
// observation that domain sellers, online marketers and hosting companies
// hold the largest portfolios, ahead of the brand companies of Table 4.
func (s *Survey) TopOrgs(n int) []Row {
	type kv struct {
		k string
		v int
	}
	all := make([]kv, 0, len(s.orgsPublic))
	for k, v := range s.orgsPublic {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]Row, 0, n)
	for _, e := range all[:n] {
		out = append(out, Row{Key: e.k, Count: e.v})
	}
	return out
}

// Table5 ranks registrars for all time and 2014.
func (s *Survey) Table5() (allTime, in2014 []Row) {
	return rank(s.registrars, 10, "(Unknown)"), rank(s.regs2014, 10, "(Unknown)")
}

// Table6 ranks registrars among privacy-protected domains.
func (s *Survey) Table6() []Row {
	return rank(s.regsPrivate, 10, "(Unknown)")
}

// Table7 ranks privacy-protection services.
func (s *Survey) Table7() []Row {
	return rank(s.privacySvcs, 10, "(Unknown)")
}

// Table8 ranks registrant countries of blacklisted 2014 domains.
func (s *Survey) Table8() []Row {
	return rank(s.bl2014Country, 10, "(Unknown)")
}

// Table9 ranks registrars of blacklisted 2014 domains.
func (s *Survey) Table9() []Row {
	return rank(s.bl2014Regs, 10, "(Unknown)")
}

// YearCount is one histogram bucket for Figure 4a.
type YearCount struct {
	Year  int
	Count int
}

// Figure4a returns the creation-date histogram.
func (s *Survey) Figure4a() []YearCount {
	years := make([]int, 0, len(s.years))
	for y := range s.years {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]YearCount, 0, len(years))
	for _, y := range years {
		out = append(out, YearCount{Year: y, Count: s.years[y]})
	}
	return out
}

// YearMix is one year's composition for Figure 4b.
type YearMix struct {
	Year  int
	Parts map[string]float64 // label -> proportion; sums to 1
}

// figure4bCountries are the explicit series of Figure 4b.
var figure4bCountries = []string{"United States", "China", "United Kingdom", "France", "Germany"}

// Figure4b returns the per-year proportions of the top countries plus
// Private, Unknown and Other, from firstYear on.
func (s *Survey) Figure4b(firstYear int) []YearMix {
	years := make([]int, 0, len(s.yearLabels))
	for y := range s.yearLabels {
		if y >= firstYear {
			years = append(years, y)
		}
	}
	sort.Ints(years)
	out := make([]YearMix, 0, len(years))
	for _, y := range years {
		var total int
		for _, c := range s.yearLabels[y] {
			total += c
		}
		mix := YearMix{Year: y, Parts: make(map[string]float64)}
		for lbl, c := range s.yearLabels[y] {
			mix.Parts[lbl] = float64(c) / float64(total)
		}
		out = append(out, mix)
	}
	return out
}

// RegistrarMix is one registrar's registrant-country composition for
// Figure 5. Unknown countries appear under the "[]" label, as the paper's
// figure annotates HiChina's records lacking country information.
type RegistrarMix struct {
	Registrar string
	Top       []Row // top 3 countries (or "[]") with Pct of that registrar
}

// Figure5 computes the top-3 registrant-country mix for registrars whose
// name contains one of the given substrings (privacy-protected domains
// excluded, matching §6.2's treatment).
func (s *Survey) Figure5(registrarSubstrings []string) []RegistrarMix {
	out := make([]RegistrarMix, 0, len(registrarSubstrings))
	for _, sub := range registrarSubstrings {
		counts := make(map[string]int)
		total := 0
		for reg, perCountry := range s.regCountry {
			if !strings.Contains(strings.ToLower(reg), strings.ToLower(sub)) {
				continue
			}
			for country, c := range perCountry {
				counts[country] += c
				total += c
			}
		}
		type kv struct {
			k string
			v int
		}
		var all []kv
		for k, v := range counts {
			all = append(all, kv{k, v})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].v != all[j].v {
				return all[i].v > all[j].v
			}
			return all[i].k < all[j].k
		})
		mix := RegistrarMix{Registrar: sub}
		for i, e := range all {
			if i >= 3 {
				break
			}
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(e.v) / float64(total)
			}
			mix.Top = append(mix.Top, Row{Key: e.k, Count: e.v, Pct: pct})
		}
		out = append(out, mix)
	}
	return out
}
