package rdap

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

func TestParsedFromRecord(t *testing.T) {
	pr := &core.ParsedRecord{
		Registrar:   "Example Registrar",
		WhoisServer: "whois.example.com",
		CreatedDate: "2014-03-04",
		ExpiresDate: "2024-03-04",
		Registrant:  core.Contact{Name: "Alice", Country: "US"},
		Blocks:      []labels.Block{labels.Registrar, labels.Registrant},
		Fields:      []labels.Field{labels.FieldOther, labels.FieldName},
	}
	pr.Lines = make([]tokenize.Line, 2) // lengths must align with Blocks/Fields
	d := ParsedFromRecord("example.com", pr)

	if d.ObjectClassName != "domain" || d.LDHName != "example.com" {
		t.Errorf("header: %+v", d)
	}
	if d.Source != "statistical-whois-parse" {
		t.Errorf("Source = %q", d.Source)
	}
	if d.Registrar != "Example Registrar" || d.Port43 != "whois.example.com" {
		t.Errorf("registrar fields: %+v", d)
	}
	if len(d.Events) != 2 { // created + expires, no updated
		t.Fatalf("events: %+v", d.Events)
	}
	if d.Events[0].EventAction != "registration" || d.Events[0].EventDate != "2014-03-04" {
		t.Errorf("registration event: %+v", d.Events[0])
	}
	if d.Registrant == nil || d.Registrant.Name != "Alice" || d.Registrant.Country != "US" {
		t.Errorf("registrant: %+v", d.Registrant)
	}
	if len(d.Lines) != 2 || d.Lines[0].Block != "registrar" || d.Lines[1].Block != "registrant" {
		t.Fatalf("lines: %+v", d.Lines)
	}
	if d.Lines[0].Field != "" {
		t.Error("field label must be omitted outside registrant blocks")
	}
	if d.Lines[1].Field != "name" {
		t.Errorf("registrant line field = %q, want \"name\"", d.Lines[1].Field)
	}
}

func TestParsedFromRecordEmptyRegistrant(t *testing.T) {
	d := ParsedFromRecord("x.com", &core.ParsedRecord{})
	if d.Registrant != nil {
		t.Error("empty registrant contact must marshal as absent, not all-empty")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := NewServer(synth.Generate(synth.Config{N: 3, Seed: 810}))
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, "/domain/x.com", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("%s: Allow = %q, want GET listed", method, allow)
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.ErrorCode != 405 {
			t.Errorf("%s: body %s", method, rec.Body.String())
		}
	}
	// HEAD stays a lookup, per RFC 7480.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/domain/x.com", nil))
	if rec.Code == http.StatusMethodNotAllowed {
		t.Error("HEAD must not be rejected as a method error")
	}
}

func TestParsedEndpointNotEnabled(t *testing.T) {
	srv := NewServer(synth.Generate(synth.Config{N: 3, Seed: 811}))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/parsed/x.com", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Errorf("status %d, want 501 when no parser is wired", rec.Code)
	}
}

func TestParsedEndpoint(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 10, Seed: 812})
	srv := NewServer(domains)
	ps := serve.NewFunc(func(text string) *core.ParsedRecord {
		return &core.ParsedRecord{Registrant: core.Contact{Name: "FAKE PARSE"}}
	}, serve.Options{Workers: 2})
	defer ps.Close()
	srv.EnableParsed(ps, domains)

	name := strings.ToLower(domains[0].Reg.Domain)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/parsed/"+name, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/rdap+json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var d ParsedDomain
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.LDHName != name || d.ObjectClassName != "domain" {
		t.Errorf("parsed object: %+v", d)
	}
	if d.Registrant == nil || d.Registrant.Name != "FAKE PARSE" {
		t.Errorf("registrant: %+v", d.Registrant)
	}

	// Unknown domains 404.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/parsed/missing.example", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown domain: status %d, want 404", rec.Code)
	}

	// Repeated requests are served from the cache: one parse total.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/parsed/"+name, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("second lookup: status %d", rec.Code)
	}
	if st := ps.Stats(); st.Parsed != 1 || st.Hits != 1 {
		t.Errorf("stats after repeat = %+v, want parsed=1 hits=1", st)
	}
}

func TestParsedEndpointSheds503(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 4, Seed: 813})
	srv := NewServer(domains)
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	ps := serve.NewFunc(func(text string) *core.ParsedRecord {
		started <- struct{}{}
		<-release
		return &core.ParsedRecord{}
	}, serve.Options{Workers: 1, QueueDepth: 1})
	defer ps.Close()
	defer close(release)
	srv.EnableParsed(ps, domains)

	// Saturate the worker and the queue with two other domains.
	go ps.Parse(context.Background(), "other record 1")
	<-started
	go ps.Parse(context.Background(), "other record 2")
	deadline := time.Now().Add(5 * time.Second)
	for ps.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/parsed/"+strings.ToLower(domains[0].Reg.Domain), nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.ErrorCode != 503 {
		t.Errorf("body: %s", rec.Body.String())
	}
}

// FuzzParsedBody pins appendParsed to the reference it replaces: for a
// record built from fuzzed strings, the appended body must equal the
// encoding/json encoding of ParsedFromRecord byte for byte. fields is
// split on '|' into the registrar, URL, whois server, the three dates,
// the eleven registrant fields and up to three line titles and values,
// in that order; the low two bits of shape give the line count and each
// following byte a line's block (low nibble) and field (high nibble).
func FuzzParsedBody(f *testing.F) {
	f.Add("example.com", "Registrar|http://r.example|whois.r.example|2014-03-04||2024-03-04|Alice", uint32(1|0x03<<8))
	f.Fuzz(func(t *testing.T, name, fields string, shape uint32) {
		v := strings.Split(fields, "|")
		get := func(i int) string {
			if i < len(v) {
				return v[i]
			}
			return ""
		}
		pr := &core.ParsedRecord{
			Registrar: get(0), RegistrarURL: get(1), WhoisServer: get(2),
			CreatedDate: get(3), UpdatedDate: get(4), ExpiresDate: get(5),
			Registrant: core.Contact{
				Name: get(6), ID: get(7), Org: get(8), Street: get(9), City: get(10), State: get(11),
				Postcode: get(12), Country: get(13), Phone: get(14), Fax: get(15), Email: get(16),
			},
		}
		for i := 0; i < int(shape&3); i++ {
			labelsByte := shape >> (8 * (i + 1))
			pr.Lines = append(pr.Lines, tokenize.Line{Title: get(17 + 2*i), Value: get(18 + 2*i)})
			pr.Blocks = append(pr.Blocks, labels.Block(labelsByte&0xF))
			pr.Fields = append(pr.Fields, labels.Field(labelsByte>>4&0xF))
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ParsedFromRecord(name, pr)); err != nil {
			t.Fatal(err)
		}
		if got := appendParsed(nil, name, pr); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendParsed differs from encoding/json\n got %q\nwant %q", got, want.Bytes())
		}
	})
}

// TestParsedReplyAllocs pins the allocations of a /parsed/ reply served
// from the parse cache, recorder included: the body is appended into a
// pooled buffer, not built as a ParsedDomain and reflected over.
func TestParsedReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	domains := synth.Generate(synth.Config{N: 4, Seed: 814})
	srv := NewServer(domains)
	ps := serve.NewFunc(func(text string) *core.ParsedRecord {
		return &core.ParsedRecord{
			Registrar:   "Example Registrar <R&D>",
			CreatedDate: "2014-03-04",
			Registrant:  core.Contact{Name: "Alice", Country: "US"},
			Lines:       []tokenize.Line{{Title: "Registrar", Value: "Example"}, {Title: "Registrant Name", Value: "Alice"}},
			Blocks:      []labels.Block{labels.Registrar, labels.Registrant},
			Fields:      []labels.Field{labels.FieldOther, labels.FieldName},
		}
	}, serve.Options{Workers: 1})
	defer ps.Close()
	srv.EnableParsed(ps, domains)
	req := httptest.NewRequest(http.MethodGet, "/parsed/"+strings.ToLower(domains[1].Reg.Domain), nil)
	get := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	get() // parse once; every later request is a cache hit
	const want = 8
	if got := testing.AllocsPerRun(200, get); got > want {
		t.Errorf("cache-hit /parsed/ reply allocates %.0f/op, want <= %d", got, want)
	}
}
