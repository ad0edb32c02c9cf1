package consistency

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rdap"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
	"repro/internal/templates"
)

// parsedFromReg builds the parsed record a perfect WHOIS pipeline would
// produce for a registration — the audit tests exercise the consistency
// machinery, not the CRF.
func parsedFromReg(reg *templates.Registration) *core.ParsedRecord {
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

// buildAuditStore fills a store with the synthetic population's
// faithful parses and returns a query engine over it.
func buildAuditStore(t *testing.T, domains []*synth.Domain) *query.Engine {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, d := range domains {
		pr := parsedFromReg(&d.Reg)
		if err := st.Append(&store.Record{
			Domain: d.Reg.Domain,
			Parsed: pr,
			Facts:  survey.FactsFrom(pr, false),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return query.New(st, query.Options{})
}

func TestAuditStoreAgrees(t *testing.T) {
	const n, seed = 120, 42
	domains := synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02})
	e := buildAuditStore(t, domains)

	a := NewAuditor()
	scored, err := a.AuditStore(e, query.Pred{}, SyntheticSource(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if scored != n {
		t.Fatalf("scored %d of %d records", scored, n)
	}
	s := a.Summary()
	if s.Records != n || s.Skipped != 0 {
		t.Fatalf("summary records=%d skipped=%d", s.Records, s.Skipped)
	}
	if s.Conflicted != 0 || s.Rate != 0 {
		t.Fatalf("faithful corpus shows conflicts: conflicted=%d rate=%v\n%s",
			s.Conflicted, s.Rate, s.FieldTable())
	}
}

func TestAuditStoreWithPredCohort(t *testing.T) {
	const n, seed = 120, 42
	domains := synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02})
	e := buildAuditStore(t, domains)
	target := domains[0].Reg.RegistrarName
	want := 0
	for _, d := range domains {
		if d.Reg.RegistrarName == target {
			want++
		}
	}

	a := NewAuditor()
	p, err := query.ParsePred("registrar=" + target)
	if err != nil {
		t.Fatal(err)
	}
	scored, err := a.AuditStore(e, p, SyntheticSource(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if scored != want {
		t.Fatalf("cohort scored %d records, want %d", scored, want)
	}
}

func TestAuditStoreSkipsUnanswerable(t *testing.T) {
	const n, seed = 30, 7
	domains := synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02})
	e := buildAuditStore(t, domains)

	a := NewAuditor()
	none := RDAPSource(func(string) (*rdap.Domain, bool) { return nil, false })
	scored, err := a.AuditStore(e, query.Pred{}, none)
	if err != nil {
		t.Fatal(err)
	}
	if scored != 0 {
		t.Fatalf("scored %d without an RDAP source answering", scored)
	}
	if s := a.Summary(); s.Skipped != n {
		t.Fatalf("skipped = %d, want %d", s.Skipped, n)
	}
	if _, err := a.AuditStore(e, query.Pred{}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestAuditInjectedDivergence is the acceptance end-to-end: one
// registrar's RDAP answers diverge from its WHOIS records (a lagging
// data migration), the batch audit runs over the store, the sentinel
// flags exactly that registrar, and the consistency.drift.* metrics are
// observable on /debug/vars.
func TestAuditInjectedDivergence(t *testing.T) {
	const n, seed = 400, 99
	domains := synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02})
	e := buildAuditStore(t, domains)

	// Pick the most common registrar as the divergence target so its
	// window comfortably clears MinWindow.
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
	if best < 8 {
		t.Fatalf("target registrar %q has only %d domains", target, best)
	}

	// The divergent source: expiry slips a year for every domain of the
	// target registrar.
	base := SyntheticSource(n, seed)
	divergent := RDAPSource(func(domain string) (*rdap.Domain, bool) {
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

	reg := obs.NewRegistry()
	sen := NewSentinel(SentinelOptions{Window: 16, MinWindow: 8, ConflictCeiling: 0.05})
	sen.Instrument(reg)
	a := NewAuditor()
	a.Sentinel = sen

	scored, err := a.AuditStore(e, query.Pred{}, divergent)
	if err != nil {
		t.Fatal(err)
	}
	if scored != n {
		t.Fatalf("scored %d of %d", scored, n)
	}

	flagged := sen.Flagged()
	if len(flagged) != 1 || flagged[0] != target {
		t.Fatalf("Flagged() = %v, want exactly [%s]", flagged, target)
	}

	s := a.Summary()
	if s.Conflicted == 0 || s.Rate == 0 {
		t.Fatal("injected divergence produced no conflicts")
	}
	if len(s.Registrars) == 0 || s.Registrars[0].Registrar != target {
		t.Fatalf("top disagreeing registrar = %+v, want %s", s.Registrars[:1], target)
	}
	if len(s.Flagged) != 1 || s.Flagged[0] != target {
		t.Fatalf("summary flagged = %v", s.Flagged)
	}
	// Expiry must be the dominant conflicting field.
	if tf := s.Registrars[0].TopFields; len(tf) == 0 || tf[0] != FieldExpires.String() {
		t.Fatalf("top conflicting fields = %v, want expires first", tf)
	}
	// Untouched registrars stay clean.
	for _, r := range s.Registrars[1:] {
		if r.Conflicts != 0 {
			t.Errorf("registrar %s has %d conflicts without injected divergence", r.Registrar, r.Conflicts)
		}
	}

	// The drift metrics are visible through the standard debug surface.
	srv := httptest.NewServer(obs.DebugMux(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("unmarshal /debug/vars: %v", err)
	}
	for key, min := range map[string]float64{
		"consistency.drift.observations": float64(n),
		"consistency.drift.conflicts":    1,
		"consistency.drift.flag_events":  1,
		"consistency.drift.flagged":      1,
	} {
		v, ok := vars[key].(float64)
		if !ok || v < min {
			t.Errorf("/debug/vars %s = %v, want >= %v", key, vars[key], min)
		}
	}
	if v, ok := vars["consistency.drift.unflag_events"].(float64); !ok || v != 0 {
		t.Errorf("/debug/vars consistency.drift.unflag_events = %v, want 0", vars["consistency.drift.unflag_events"])
	}

	// The tables render without panicking and name the target registrar.
	if out := s.RegistrarTable(5); !strings.Contains(out, target) {
		t.Errorf("registrar table misses target:\n%s", out)
	}
	if out := s.FieldTable(); !strings.Contains(out, "expires") {
		t.Errorf("field table misses expires:\n%s", out)
	}
}

// TestSyntheticSourceBuildsPerLookup: for every domain of a seeded
// corpus, looked up in mixed case, the source answers an object
// deep-equal to rdap.FromRegistration of the last registration with
// that name, also with a mixed-case duplicate appended to the corpus;
// unknown names answer no object.
func TestSyntheticSourceBuildsPerLookup(t *testing.T) {
	const n, seed = 120, 7
	domains := synth.Generate(synth.Config{N: n, Seed: seed, BrandFraction: 0.02})
	dup := *domains[9]
	dup.Reg.Domain = strings.ToUpper(domains[4].Reg.Domain)
	withDup := append(domains[:n:n], &dup)
	for _, tc := range []struct {
		name   string
		src    RDAPSource
		corpus []*synth.Domain
	}{
		{"SyntheticSource", SyntheticSource(n, seed), domains},
		{"duplicate", registrationSource(withDup), withDup},
	} {
		last := map[string]*templates.Registration{}
		for _, d := range tc.corpus {
			last[strings.ToLower(d.Reg.Domain)] = &d.Reg
		}
		for name, reg := range last {
			got, ok := tc.src(strings.ToUpper(name[:1]) + name[1:])
			if !ok || !reflect.DeepEqual(got, rdap.FromRegistration(reg)) {
				t.Fatalf("%s: %s: got %+v (ok=%v), want FromRegistration of its last registration", tc.name, name, got, ok)
			}
		}
		if d, ok := tc.src("not-in-the-corpus.example"); ok || d != nil {
			t.Errorf("%s: unknown domain answered %+v", tc.name, d)
		}
	}
}
