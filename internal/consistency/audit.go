package consistency

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/norm"
	"repro/internal/query"
	"repro/internal/rdap"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
	"repro/internal/templates"
)

// RDAPSource resolves a domain name to its RDAP object during a batch
// audit. The boolean is false when the source has no answer for the
// domain — that record is skipped, not scored.
type RDAPSource func(domain string) (*rdap.Domain, bool)

// SyntheticSource regenerates the deterministic synthetic population
// (same n and seed as the corpus builder) and serves each domain's
// ground-truth registration as RDAP — what the registry's RDAP endpoint
// would say if its data store were exactly the simulator's truth. Audits
// against it measure the WHOIS pipeline's end-to-end fidelity: any
// conflict is a parse or template loss, since both protocols derive from
// the same truth. The generator config must match the corpus builder's
// exactly or the RNG streams diverge and the "same" seed yields a
// different population — BrandFraction 0.02 is the convention shared by
// rdapd and whoissurvey -synthetic.
func SyntheticSource(n int, seed int64) RDAPSource {
	return registrationSource(synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02}))
}

// registrationSource serves each domain's registration as RDAP, built
// per lookup as rdap.Server builds /domain/ objects: names match
// lower-cased, and a later domain with the same name replaces an
// earlier one.
func registrationSource(domains []*synth.Domain) RDAPSource {
	byDomain := make(map[string]*templates.Registration, len(domains))
	for _, d := range domains {
		byDomain[strings.ToLower(d.Reg.Domain)] = &d.Reg
	}
	return func(domain string) (*rdap.Domain, bool) {
		reg, ok := byDomain[strings.ToLower(domain)]
		if !ok {
			return nil, false
		}
		return rdap.FromRegistration(reg), true
	}
}

// ClientSource adapts an RDAP client into an RDAPSource; lookup errors
// read as "no answer".
func ClientSource(c *rdap.Client) RDAPSource {
	return func(domain string) (*rdap.Domain, bool) {
		d, err := c.Lookup(domain)
		if err != nil {
			return nil, false
		}
		return d, true
	}
}

// Auditor accumulates comparisons into the survey-style aggregate
// views: per-field verdict counts and per-registrar disagreement. All
// methods are safe for concurrent use; an optional Sentinel receives
// every observed comparison.
type Auditor struct {
	// Sentinel, when non-nil, is fed every comparison (drift windows and
	// consistency.drift.* metrics).
	Sentinel *Sentinel

	mu       sync.Mutex
	records  int
	skipped  int
	verdicts [NumFields][NumVerdicts]int
	regs     map[string]*regAgg
}

// regAgg is one registrar's running aggregate, keyed by the normalized
// registrar name so spelling variants bucket together.
type regAgg struct {
	display    string
	records    int
	conflicted int // records with >= 1 conflicting field
	conflicts  int // conflicting fields, total
	comparable int
	byField    [NumFields]int
}

// NewAuditor returns an empty auditor.
func NewAuditor() *Auditor {
	return &Auditor{regs: map[string]*regAgg{}}
}

// Observe folds one comparison into the aggregates.
func (a *Auditor) Observe(c Comparison) {
	a.mu.Lock()
	a.records++
	for f, v := range c.Verdicts {
		a.verdicts[f][v]++
	}
	key := norm.Registrar(c.Registrar)
	r := a.regs[key]
	if r == nil {
		r = &regAgg{display: c.Registrar}
		if r.display == "" {
			r.display = "(unknown)"
		}
		a.regs[key] = r
	}
	r.records++
	r.comparable += c.Comparable()
	if n := c.Conflicts(); n > 0 {
		r.conflicted++
		r.conflicts += n
		for f, v := range c.Verdicts {
			if v == Conflict {
				r.byField[f]++
			}
		}
	}
	a.mu.Unlock()

	if a.Sentinel != nil {
		a.Sentinel.Observe(c)
	}
}

// Skip counts a record the audit could not score (no parsed WHOIS, or
// no RDAP answer).
func (a *Auditor) Skip() {
	a.mu.Lock()
	a.skipped++
	a.mu.Unlock()
}

// AuditStore runs the batch audit: scan the store through the query
// engine under p (the facts sidecars prune segments and name the frames
// holding a match, so registrar/country/year cohorts audit without full
// scans; the audit needs the parsed records, so it reads them through
// Scan), obtain each matched record's RDAP answer from src, and fold
// the comparison in. Records without a parsed
// WHOIS side or without an RDAP answer count as skipped. Returns the
// number of records scored.
func (a *Auditor) AuditStore(e *query.Engine, p query.Pred, src RDAPSource) (int, error) {
	if src == nil {
		return 0, fmt.Errorf("consistency: AuditStore needs an RDAPSource")
	}
	scored := 0
	_, err := e.Scan(p, func(rec *store.Record) error {
		if rec.Parsed == nil {
			a.Skip()
			return nil
		}
		d, ok := src(rec.Domain)
		if !ok {
			a.Skip()
			return nil
		}
		w := FromWHOIS(rec.Parsed)
		if w.Domain == "" {
			w.Domain = rec.Domain
		}
		a.Observe(Compare(w, FromRDAP(d)))
		scored++
		return nil
	})
	if err != nil {
		return scored, fmt.Errorf("consistency: audit scan: %w", err)
	}
	return scored, nil
}

// FieldSummary is one field's verdict counts.
type FieldSummary struct {
	Field        string  `json:"field"`
	Equal        int     `json:"equal"`
	Equivalent   int     `json:"equivalent"`
	MissingWHOIS int     `json:"missing_whois"`
	MissingRDAP  int     `json:"missing_rdap"`
	MissingBoth  int     `json:"missing_both"`
	Conflict     int     `json:"conflict"`
	Rate         float64 `json:"rate"` // conflicts / comparable
}

// RegistrarSummary is one registrar's disagreement aggregate.
type RegistrarSummary struct {
	Registrar  string  `json:"registrar"`
	Records    int     `json:"records"`
	Conflicted int     `json:"conflicted_records"`
	Conflicts  int     `json:"conflicts"`
	Rate       float64 `json:"rate"` // conflicting fields / comparable fields
	// TopFields are the registrar's most-conflicted fields, worst first,
	// at most three.
	TopFields []string `json:"top_fields,omitempty"`
}

// Summary is the JSON-able audit outcome served by rdapd's
// /admin/consistency endpoint and printed by the CLIs.
type Summary struct {
	Records    int `json:"records"`
	Skipped    int `json:"skipped"`
	Conflicted int `json:"conflicted_records"`
	// Rate is the overall disagreement rate: conflicting fields over
	// comparable fields across all records.
	Rate       float64            `json:"rate"`
	Fields     []FieldSummary     `json:"fields"`
	Registrars []RegistrarSummary `json:"registrars"`
	Flagged    []string           `json:"flagged_registrars,omitempty"`
}

// Summary snapshots the aggregates. Registrars are sorted by conflicting
// fields descending (ties by record count, then name).
func (a *Auditor) Summary() Summary {
	a.mu.Lock()
	defer a.mu.Unlock()

	s := Summary{Records: a.records, Skipped: a.skipped}
	var totalConflicts, totalComparable int
	for f := Field(0); f < NumFields; f++ {
		v := a.verdicts[f]
		comp := v[Equal] + v[Equivalent] + v[Conflict]
		fs := FieldSummary{
			Field:        f.String(),
			Equal:        v[Equal],
			Equivalent:   v[Equivalent],
			MissingWHOIS: v[MissingWHOIS],
			MissingRDAP:  v[MissingRDAP],
			MissingBoth:  v[MissingBoth],
			Conflict:     v[Conflict],
		}
		if comp > 0 {
			fs.Rate = float64(v[Conflict]) / float64(comp)
		}
		totalConflicts += v[Conflict]
		totalComparable += comp
		s.Fields = append(s.Fields, fs)
	}
	if totalComparable > 0 {
		s.Rate = float64(totalConflicts) / float64(totalComparable)
	}

	for _, r := range a.regs {
		s.Conflicted += r.conflicted
		rs := RegistrarSummary{
			Registrar:  r.display,
			Records:    r.records,
			Conflicted: r.conflicted,
			Conflicts:  r.conflicts,
		}
		if r.comparable > 0 {
			rs.Rate = float64(r.conflicts) / float64(r.comparable)
		}
		rs.TopFields = topFields(&r.byField, 3)
		s.Registrars = append(s.Registrars, rs)
	}
	sort.Slice(s.Registrars, func(i, j int) bool {
		a, b := s.Registrars[i], s.Registrars[j]
		if a.Conflicts != b.Conflicts {
			return a.Conflicts > b.Conflicts
		}
		if a.Records != b.Records {
			return a.Records > b.Records
		}
		return a.Registrar < b.Registrar
	})

	if a.Sentinel != nil {
		s.Flagged = a.Sentinel.Flagged()
		sort.Strings(s.Flagged)
	}
	return s
}

// topFields returns the n most-conflicted field names, worst first.
func topFields(byField *[NumFields]int, n int) []string {
	type fc struct {
		f Field
		c int
	}
	var fs []fc
	for f := Field(0); f < NumFields; f++ {
		if byField[f] > 0 {
			fs = append(fs, fc{f, byField[f]})
		}
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].c != fs[j].c {
			return fs[i].c > fs[j].c
		}
		return fs[i].f < fs[j].f
	})
	if len(fs) > n {
		fs = fs[:n]
	}
	out := make([]string, len(fs))
	for i, x := range fs {
		out[i] = x.f.String()
	}
	return out
}

// FieldTable renders the per-field disagreement table in the survey's
// table style: conflict count per field, percentage over that field's
// comparable pairs.
func (s *Summary) FieldTable() string {
	rows := make([]survey.Row, 0, len(s.Fields)+1)
	var total, comp int
	for _, f := range s.Fields {
		rows = append(rows, survey.Row{Key: f.Field, Count: f.Conflict, Pct: 100 * f.Rate})
		total += f.Conflict
		comp += f.Equal + f.Equivalent + f.Conflict
	}
	pct := 0.0
	if comp > 0 {
		pct = 100 * float64(total) / float64(comp)
	}
	rows = append(rows, survey.Row{Key: "Total", Count: total, Pct: pct})
	return survey.RenderRows("Cross-protocol conflicts by field", rows)
}

// RegistrarTable renders the top-n registrars by conflicting fields,
// percentage being each registrar's disagreement rate.
func (s *Summary) RegistrarTable(n int) string {
	rows := make([]survey.Row, 0, n)
	for i, r := range s.Registrars {
		if i >= n {
			break
		}
		rows = append(rows, survey.Row{Key: r.Registrar, Count: r.Conflicts, Pct: 100 * r.Rate})
	}
	return survey.RenderRows("Cross-protocol conflicts by registrar", rows)
}

// VerdictTable renders the verdict mix over all field slots.
func (s *Summary) VerdictTable() string {
	var counts [NumVerdicts]int
	for _, f := range s.Fields {
		counts[Equal] += f.Equal
		counts[Equivalent] += f.Equivalent
		counts[MissingWHOIS] += f.MissingWHOIS
		counts[MissingRDAP] += f.MissingRDAP
		counts[MissingBoth] += f.MissingBoth
		counts[Conflict] += f.Conflict
	}
	slots := 0
	for _, c := range counts {
		slots += c
	}
	rows := make([]survey.Row, 0, NumVerdicts)
	for v := Verdict(0); v < NumVerdicts; v++ {
		pct := 0.0
		if slots > 0 {
			pct = 100 * float64(counts[v]) / float64(slots)
		}
		rows = append(rows, survey.Row{Key: v.String(), Count: counts[v], Pct: pct})
	}
	return survey.RenderRows("Agreement taxonomy across all fields", rows)
}
