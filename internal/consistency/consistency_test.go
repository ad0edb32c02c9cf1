package consistency

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/labels"
	"repro/internal/rdap"
	"repro/internal/templates"
	"repro/internal/tokenize"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// fixtureReg is a fixed ground-truth registration both fixture sides
// derive from, so the paired views agree unless a case perturbs one.
func fixtureReg() *templates.Registration {
	person := func(name, email string) identity.Person {
		return identity.Person{
			Name: name, Org: "Example Widgets LLC",
			Street: "1600 Market St", City: "Phoenix", State: "AZ",
			Postcode: "85001", CountryCode: "US", CountryName: "United States",
			Phone: "+1.6025551234", Email: email,
		}
	}
	return &templates.Registration{
		Domain:        "example-consistency.com",
		TLD:           "com",
		RegistrarName: "GoDaddy.com, LLC",
		RegistrarIANA: 146,
		RegistrarURL:  "http://www.godaddy.com",
		WhoisServer:   "whois.godaddy.com",
		Created:       time.Date(2003, 4, 17, 9, 30, 0, 0, time.UTC),
		Updated:       time.Date(2013, 2, 2, 14, 0, 0, 0, time.UTC),
		Expires:       time.Date(2016, 4, 17, 9, 30, 0, 0, time.UTC),
		Registrant:    person("Pat Holder", "pat@example-consistency.com"),
		Admin:         person("Alex Admin", "admin@example-consistency.com"),
		Tech:          person("Terry Tech", "tech@example-consistency.com"),
		NameServers:   []string{"ns1.example-dns.com", "ns2.example-dns.com"},
		Statuses:      []string{"clientTransferProhibited", "clientDeleteProhibited"},
	}
}

// whoisFromReg builds the WHOIS-side view the parser would extract from
// a faithful record: same truth, WHOIS date spellings.
func whoisFromReg(reg *templates.Registration) *core.ParsedRecord {
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

func TestCompareTaxonomy(t *testing.T) {
	reg := fixtureReg()
	r := FromRDAP(rdap.FromRegistration(reg))

	t.Run("equivalent", func(t *testing.T) {
		// Faithful WHOIS: different spellings of the same truth. Dates
		// differ in layout, so they classify as Equivalent, not Equal.
		w := FromWHOIS(whoisFromReg(reg))
		c := Compare(w, r)
		if c.Conflicts() != 0 {
			t.Fatalf("faithful views conflict: %+v", c.Verdicts)
		}
		for _, f := range []Field{FieldCreated, FieldUpdated, FieldExpires} {
			if c.Verdicts[f] != Equivalent {
				t.Errorf("%s = %s, want equivalent", f, c.Verdicts[f])
			}
		}
		if c.Verdicts[FieldRegistrar] != Equal {
			t.Errorf("registrar = %s, want equal (identical spelling)", c.Verdicts[FieldRegistrar])
		}
		// The WHOIS parser never extracts admin/tech contacts; RDAP has
		// them — naturally missing-in-WHOIS.
		if c.Verdicts[FieldAdminEmail] != MissingWHOIS || c.Verdicts[FieldTechEmail] != MissingWHOIS {
			t.Errorf("admin/tech = %s/%s, want missing-whois",
				c.Verdicts[FieldAdminEmail], c.Verdicts[FieldTechEmail])
		}
	})

	t.Run("equal", func(t *testing.T) {
		// WHOIS spelling byte-identical to RDAP's.
		pr := whoisFromReg(reg)
		pr.CreatedDate = reg.Created.Format("2006-01-02T15:04:05Z07:00")
		c := Compare(FromWHOIS(pr), r)
		if got := c.Verdicts[FieldCreated]; got != Equal {
			t.Errorf("created = %s, want equal", got)
		}
	})

	t.Run("conflict", func(t *testing.T) {
		pr := whoisFromReg(reg)
		pr.Registrar = "Totally Different Registrar, Inc."
		pr.ExpiresDate = reg.Expires.AddDate(1, 0, 0).Format("02-Jan-2006")
		pr.Registrant.Email = "someone-else@example.net"
		c := Compare(FromWHOIS(pr), r)
		for _, f := range []Field{FieldRegistrar, FieldExpires, FieldRegistrantEmail} {
			if c.Verdicts[f] != Conflict {
				t.Errorf("%s = %s, want conflict", f, c.Verdicts[f])
			}
		}
		if got := c.Conflicts(); got != 3 {
			t.Errorf("Conflicts() = %d, want 3", got)
		}
		if c.Rate() <= 0 {
			t.Errorf("Rate() = %v, want > 0", c.Rate())
		}
		if got := c.ConflictFields(); len(got) != 3 || got[0] != FieldRegistrar {
			t.Errorf("ConflictFields() = %v", got)
		}
	})

	t.Run("missing", func(t *testing.T) {
		// Thin WHOIS against an RDAP answer with no statuses.
		pr := &core.ParsedRecord{DomainName: strings.ToLower(reg.Domain)}
		thin := rdap.FromRegistration(reg)
		thin.Status = nil
		c := Compare(FromWHOIS(pr), FromRDAP(thin))
		if got := c.Verdicts[FieldRegistrar]; got != MissingWHOIS {
			t.Errorf("registrar = %s, want missing-whois", got)
		}
		if got := c.Verdicts[FieldStatuses]; got != MissingBoth {
			t.Errorf("statuses = %s, want missing-both", got)
		}
		if c.Comparable() != 0 {
			t.Errorf("Comparable() = %d, want 0 (nothing present on both sides)", c.Comparable())
		}
	})

	t.Run("missing-rdap", func(t *testing.T) {
		bare := &rdap.Domain{ObjectClassName: "domain", LDHName: strings.ToLower(reg.Domain)}
		c := Compare(FromWHOIS(whoisFromReg(reg)), FromRDAP(bare))
		for _, f := range []Field{FieldRegistrar, FieldCreated, FieldNameServers} {
			if c.Verdicts[f] != MissingRDAP {
				t.Errorf("%s = %s, want missing-rdap", f, c.Verdicts[f])
			}
		}
	})

	t.Run("unparseable-date-is-missing", func(t *testing.T) {
		pr := whoisFromReg(reg)
		pr.CreatedDate = "not a date"
		c := Compare(FromWHOIS(pr), r)
		if got := c.Verdicts[FieldCreated]; got != MissingWHOIS {
			t.Errorf("created = %s, want missing-whois for unparseable date", got)
		}
	})

	t.Run("list-order-is-equivalent", func(t *testing.T) {
		pr := whoisFromReg(reg)
		if len(pr.NameServers) < 2 {
			t.Skip("fixture has fewer than 2 nameservers")
		}
		pr.NameServers[0], pr.NameServers[1] = pr.NameServers[1], pr.NameServers[0]
		pr.NameServers[0] = strings.ToUpper(pr.NameServers[0])
		c := Compare(FromWHOIS(pr), r)
		if got := c.Verdicts[FieldNameServers]; got != Equivalent {
			t.Errorf("nameservers = %s, want equivalent after reorder+case", got)
		}
	})
}

func TestFromWHOISLinesFallback(t *testing.T) {
	// Records decoded from pre-domain-meta store segments have raw-only
	// lines; the projection must recover NS and statuses from them.
	raws := []string{
		"   Domain Name: EXAMPLE.COM",
		"   Name Server: NS1.EXAMPLE-DNS.COM",
		"   Name Server: NS2.EXAMPLE-DNS.COM",
		"   Status: clientTransferProhibited https://icann.org/epp#clientTransferProhibited",
		"   DNSSEC: unsigned", // contains "dns" but is a signing state, not a host
	}
	pr := &core.ParsedRecord{DomainName: "example.com"}
	for _, raw := range raws {
		pr.Lines = append(pr.Lines, tokenize.Line{Raw: raw})
		pr.Blocks = append(pr.Blocks, labels.Domain)
		pr.Fields = append(pr.Fields, labels.FieldOther)
	}
	v := FromWHOIS(pr)
	if len(v.NameServers) != 2 || v.NameServers[0] != "NS1.EXAMPLE-DNS.COM" {
		t.Errorf("NameServers = %v", v.NameServers)
	}
	if len(v.Statuses) != 1 || !strings.HasPrefix(v.Statuses[0], "clientTransferProhibited") {
		t.Errorf("Statuses = %v", v.Statuses)
	}
	// Pre-split titles take the direct path.
	pr2 := &core.ParsedRecord{
		Lines:  []tokenize.Line{{Raw: "x", Title: "Domain Name Servers", Value: "ns9.example.net"}},
		Blocks: []labels.Block{labels.Domain},
		Fields: []labels.Field{labels.FieldOther},
	}
	if v := FromWHOIS(pr2); len(v.NameServers) != 1 || v.NameServers[0] != "ns9.example.net" {
		t.Errorf("titled fallback NameServers = %v", v.NameServers)
	}
}

func TestFieldAndVerdictNames(t *testing.T) {
	seen := map[string]bool{}
	for f := Field(0); f < NumFields; f++ {
		name := f.String()
		if name == "" || name == "invalid" || seen[name] {
			t.Errorf("field %d has bad or duplicate name %q", f, name)
		}
		seen[name] = true
	}
	if Field(-1).String() != "invalid" || Verdict(99).String() != "invalid" {
		t.Error("out-of-range String() should be \"invalid\"")
	}
	if names := FieldsByName(); len(names) != int(NumFields) || names[0] != "registrar" {
		t.Errorf("FieldsByName() = %v", names)
	}
}

// TestGoldenAgreementTables locks the rendered disagreement tables over
// a fixed paired corpus that exercises every taxonomy outcome. Refresh
// with: go test ./internal/consistency -run Golden -update
func TestGoldenAgreementTables(t *testing.T) {
	a := NewAuditor()

	// Four agreeing domains under the fixture registrar (different
	// spellings → equivalent), then perturbed ones.
	for i := 0; i < 4; i++ {
		r := fixtureReg()
		r.Domain = fmt.Sprintf("agree-%d.com", i)
		a.Observe(Compare(FromWHOIS(whoisFromReg(r)), FromRDAP(rdap.FromRegistration(r))))
	}
	// Conflicting registrar + expiry under a second registrar.
	for i := 0; i < 2; i++ {
		r := fixtureReg()
		r.Domain = fmt.Sprintf("conflict-%d.com", i)
		r.RegistrarName = "eNom, Inc."
		pr := whoisFromReg(r)
		pr.Registrar = "Ename Technology Co. Ltd."
		pr.ExpiresDate = r.Expires.AddDate(0, 6, 0).Format("02-Jan-2006")
		a.Observe(Compare(FromWHOIS(pr), FromRDAP(rdap.FromRegistration(r))))
	}
	// A thin WHOIS record: everything missing on the WHOIS side.
	thinReg := fixtureReg()
	thinReg.Domain = "thin.com"
	a.Observe(Compare(
		FromWHOIS(&core.ParsedRecord{DomainName: "thin.com"}),
		FromRDAP(rdap.FromRegistration(thinReg))))
	// An RDAP answer with no contacts or statuses: missing on the RDAP
	// side (and admin/tech missing on both).
	bareReg := fixtureReg()
	bareReg.Domain = "bare.com"
	bare := rdap.FromRegistration(bareReg)
	bare.Entities = bare.Entities[:1] // keep only the registrar entity
	bare.Status = nil
	a.Observe(Compare(FromWHOIS(whoisFromReg(bareReg)), FromRDAP(bare)))

	s := a.Summary()
	var b strings.Builder
	fmt.Fprintf(&b, "records=%d skipped=%d conflicted=%d rate=%.4f\n\n",
		s.Records, s.Skipped, s.Conflicted, s.Rate)
	b.WriteString(s.FieldTable())
	b.WriteString("\n")
	b.WriteString(s.VerdictTable())
	b.WriteString("\n")
	b.WriteString(s.RegistrarTable(5))
	got := b.String()

	path := filepath.Join("testdata", "golden", "agreement_tables.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("agreement tables drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

func TestSentinelTransitions(t *testing.T) {
	var events []string
	s := NewSentinel(SentinelOptions{
		Window: 8, MinWindow: 4, ConflictCeiling: 0.2,
		OnDrift: func(reg string, flagged bool, rate float64) {
			events = append(events, fmt.Sprintf("%s/%v", reg, flagged))
		},
	})
	bad := Comparison{Registrar: "Drifty LLC"}
	bad.Verdicts[FieldRegistrar] = Equal
	bad.Verdicts[FieldExpires] = Conflict
	for f := FieldCreated; f < NumFields; f++ {
		if bad.Verdicts[f] == 0 && f != FieldExpires {
			bad.Verdicts[f] = MissingBoth
		}
	}
	good := bad
	good.Verdicts[FieldExpires] = Equivalent

	// Rate 0.5 per record: flags on the 4th observation, not before.
	for i := 0; i < 3; i++ {
		if f, _ := s.Observe(bad); f {
			t.Fatalf("flagged before MinWindow at observation %d", i+1)
		}
	}
	if f, _ := s.Observe(bad); !f {
		t.Fatal("not flagged at MinWindow with rate over ceiling")
	}
	if got := s.Flagged(); len(got) != 1 || got[0] != "Drifty LLC" {
		t.Fatalf("Flagged() = %v", got)
	}
	// Recovery: clean observations push the windowed mean back down.
	var unflagged bool
	for i := 0; i < 8 && !unflagged; i++ {
		_, unflagged = s.Observe(good)
	}
	if !unflagged {
		t.Fatal("never unflagged after recovery")
	}
	if got := s.Flagged(); len(got) != 0 {
		t.Fatalf("Flagged() after recovery = %v", got)
	}
	if len(events) != 2 || events[0] != "Drifty LLC/true" || events[1] != "Drifty LLC/false" {
		t.Fatalf("OnDrift events = %v", events)
	}

	// No-comparable observations never move windows.
	var empty Comparison
	for f := Field(0); f < NumFields; f++ {
		empty.Verdicts[f] = MissingBoth
	}
	for i := 0; i < 10; i++ {
		if f, u := s.Observe(empty); f || u {
			t.Fatal("empty comparison moved the sentinel")
		}
	}
}

func TestCheckerFakeFetchers(t *testing.T) {
	reg := fixtureReg()
	pr := whoisFromReg(reg)
	ck := &Checker{
		FetchWHOIS: func(_ context.Context, domain string) (string, error) {
			return "Domain Name: " + domain, nil
		},
		FetchRDAP: func(_ context.Context, domain string) (*rdap.Domain, error) {
			return rdap.FromRegistration(reg), nil
		},
		Parse: func(text string) *core.ParsedRecord { return pr },
	}
	res, err := ck.Check(context.Background(), reg.Domain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparison.Conflicts() != 0 {
		t.Errorf("faithful check found conflicts: %+v", res.Comparison.Verdicts)
	}
	if res.Comparison.Registrar != reg.RegistrarName {
		t.Errorf("comparison registrar = %q", res.Comparison.Registrar)
	}
}

// Date folding compares calendar days: a day-only WHOIS spelling and a
// full RDAP timestamp of the same UTC day are equivalent.
func TestDateEquivalenceAcrossLayouts(t *testing.T) {
	reg := fixtureReg()
	reg.Created = time.Date(2011, 7, 9, 4, 30, 0, 0, time.UTC)
	w := FromWHOIS(whoisFromReg(reg))
	r := FromRDAP(rdap.FromRegistration(reg))
	if c := Compare(w, r); c.Verdicts[FieldCreated] != Equivalent {
		t.Errorf("created = %s, want equivalent", c.Verdicts[FieldCreated])
	}
}

// FieldsByName returns the field display names in field order — the
// stable column order for tables and JSON summaries.
func FieldsByName() []string {
	out := make([]string, NumFields)
	for f := Field(0); f < NumFields; f++ {
		out[f] = fieldNames[f]
	}
	return out
}
