package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
	"repro/internal/templates"
)

// faithfulParseFn builds a stub parse function that answers each
// domain's rendered WHOIS text with the parse a perfect pipeline would
// produce — the handler under test, not the CRF, is what these tests
// exercise.
func faithfulParseFn(domains []*synth.Domain) func(string) *core.ParsedRecord {
	byText := make(map[string]*core.ParsedRecord, len(domains))
	for _, d := range domains {
		byText[d.Render().Text] = faithfulParse(&d.Reg)
	}
	return func(text string) *core.ParsedRecord { return byText[text] }
}

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

func getSummary(t *testing.T, h http.Handler, target string) consistency.Summary {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", target, rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var s consistency.Summary
	if err := json.Unmarshal(rr.Body.Bytes(), &s); err != nil {
		t.Fatalf("unmarshal summary: %v\n%s", err, rr.Body.String())
	}
	return s
}

// TestAdminConsistencySelfAudit drives the /admin/consistency handler: a
// faithful parse audits clean, a divergent one surfaces its registrar,
// and ?limit bounds the work.
func TestAdminConsistencySelfAudit(t *testing.T) {
	const n = 40
	domains := synth.Generate(synth.Config{N: n, Seed: 3})
	h := adminConsistency(domains, faithfulParseFn(domains))

	s := getSummary(t, h, "/admin/consistency")
	if s.Records != n || s.Skipped != 0 {
		t.Fatalf("records=%d skipped=%d, want %d/0", s.Records, s.Skipped, n)
	}
	if s.Conflicted != 0 || s.Rate != 0 {
		t.Fatalf("faithful self-audit shows conflicts: %+v", s)
	}
	if len(s.Fields) == 0 || len(s.Registrars) == 0 {
		t.Fatalf("summary missing breakdowns: %+v", s)
	}

	if s := getSummary(t, h, "/admin/consistency?limit=10"); s.Records != 10 {
		t.Errorf("limit=10 audited %d records", s.Records)
	}

	// A parse whose expiry slips a year for one registrar's domains must
	// put that registrar at the top of the disagreement ranking.
	target := domains[0].Reg.RegistrarName
	base := faithfulParseFn(domains)
	divergent := func(text string) *core.ParsedRecord {
		pr := base(text)
		if pr == nil || pr.Registrar != target {
			return pr
		}
		mut := *pr
		if exp, err := time.Parse("02-Jan-2006", pr.ExpiresDate); err == nil {
			mut.ExpiresDate = exp.AddDate(1, 0, 0).Format("02-Jan-2006")
		}
		return &mut
	}
	s = getSummary(t, adminConsistency(domains, divergent), "/admin/consistency")
	if s.Conflicted == 0 || s.Rate == 0 {
		t.Fatalf("divergent parse audited clean: %+v", s)
	}
	if len(s.Registrars) == 0 || s.Registrars[0].Registrar != target {
		t.Fatalf("top disagreeing registrar = %+v, want %s", s.Registrars[:1], target)
	}
	if tf := s.Registrars[0].TopFields; len(tf) == 0 || tf[0] != "expires" {
		t.Errorf("top conflicting fields = %v, want expires first", tf)
	}

	// Texts the parser cannot answer are skipped, not scored.
	none := func(string) *core.ParsedRecord { return nil }
	if s := getSummary(t, adminConsistency(domains, none), "/admin/consistency"); s.Records != 0 || s.Skipped != n {
		t.Errorf("nil parse: records=%d skipped=%d, want 0/%d", s.Records, s.Skipped, n)
	}
}

// TestAdminConsistencyMethodsAndLimits pins the endpoint's read-only
// contract: non-GET/HEAD answers 405 with an Allow header, HEAD is
// accepted, and malformed limits answer 400.
func TestAdminConsistencyMethodsAndLimits(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 8, Seed: 3})
	h := adminConsistency(domains, faithfulParseFn(domains))

	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, "/admin/consistency", strings.NewReader("{}")))
		if rr.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s = %d, want 405", method, rr.Code)
		}
		if allow := rr.Header().Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("%s Allow = %q, want %q", method, allow, "GET, HEAD")
		}
		var body map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body["error"] == nil {
			t.Errorf("%s body is not a JSON error: %s", method, rr.Body.String())
		}
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodHead, "/admin/consistency", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("HEAD = %d, want 200", rr.Code)
	}

	for _, target := range []string{"/admin/consistency?limit=0", "/admin/consistency?limit=-3", "/admin/consistency?limit=abc"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", target, rr.Code)
		}
	}
}

// TestAdminQueryMatchesFullScan drives /admin/query over a store with
// compressed sealed segments and a non-empty active one: for every
// predicate the reply's counts equal a FullScan fold's, and every
// segment is pruned or answered from its sidecar.
func TestAdminQueryMatchesFullScan(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{SegmentBytes: 4 << 10, BlockRecords: 5, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	registrars := []string{"eNom", "GoDaddy.com, LLC", "Tucows Domains Inc.", ""}
	countries := []string{"United States", "China", "Germany", ""}
	add := func(from, to int) {
		for i := from; i < to; i++ {
			f := survey.Facts{
				Domain:      fmt.Sprintf("host%d.example", i),
				Registrar:   registrars[i%len(registrars)],
				Country:     countries[i/3%len(countries)],
				CreatedYear: 1998 + i%17,
			}
			if err := st.Append(&store.Record{Domain: f.Domain, Facts: f}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(0, 300)
	if _, err := st.CompressSealed(); err != nil {
		t.Fatal(err)
	}
	add(300, 320)
	if infos := st.SegmentInfos(); len(infos) < 3 || infos[len(infos)-1].Records == 0 {
		t.Fatalf("want sealed segments and a non-empty active one: %+v", infos)
	}
	e := query.New(st, query.Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	h := adminQuery(e)

	type reply struct {
		Matched       uint64      `json:"matched"`
		Stats         query.Stats `json:"stats"`
		TopRegistrars []keyCount  `json:"top_registrars"`
		TopCountries  []keyCount  `json:"top_countries"`
		Years         []yearCount `json:"years"`
	}
	for i, c := range []struct{ target, where string }{
		{"/admin/query", ""},
		{"/admin/query?registrar=eNom", "registrar=eNom"},
		{"/admin/query?country=China&since=2005", "country=China,since=2005"},
		{"/admin/query?where=" + url.QueryEscape("registrar=GoDaddy.com, LLC,year=2000..2010"), "registrar=GoDaddy.com, LLC,year=2000..2010"},
		{"/admin/query?registrar=No%20Such%20Registrar", "registrar=No Such Registrar"},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, c.target, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", c.target, rr.Code, rr.Body.String())
		}
		var got reply
		if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
			t.Fatalf("GET %s: %v\n%s", c.target, err, rr.Body.String())
		}

		p, err := query.ParsePred(c.where)
		if err != nil {
			t.Fatal(err)
		}
		var want reply
		regs, ctys, years := map[string]int{}, map[string]int{}, map[int]int{}
		err = e.FullScan(p, func(rec *store.Record) error {
			want.Matched++
			if rec.Facts.Registrar != "" {
				regs[rec.Facts.Registrar]++
			}
			if rec.Facts.Country != "" {
				ctys[rec.Facts.Country]++
			}
			years[rec.Facts.CreatedYear]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want.Stats = got.Stats
		want.TopRegistrars, want.TopCountries, want.Years = topCounts(regs, 10), topCounts(ctys, 10), yearCounts(years)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GET %s:\n got %+v\nwant %+v", c.target, got, want)
		}
		// Only the first query decodes records: the active segment's, to
		// build its sidecar.
		if s := got.Stats; s.Pruned+s.FromSidecar != s.Segments || s.FullScanned != 0 || i > 0 && s.RecordsRead != 0 {
			t.Errorf("GET %s: segments not all answered from sidecars: %s", c.target, s)
		}
	}
}
