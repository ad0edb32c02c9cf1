package rdap

import (
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

func sample(t *testing.T) *synth.Domain {
	t.Helper()
	return synth.Generate(synth.Config{N: 5, Seed: 801})[0]
}

func TestFromRegistrationRoundTrip(t *testing.T) {
	d := sample(t)
	obj := FromRegistration(&d.Reg)
	data, err := obj.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.LDHName != d.Reg.Domain {
		t.Errorf("ldhName %q, want %q", back.LDHName, d.Reg.Domain)
	}
	reg, ok := back.ContactByRole("registrant")
	if !ok {
		t.Fatal("no registrant entity")
	}
	if reg.Name != d.Reg.Registrant.Name {
		t.Errorf("registrant name %q, want %q", reg.Name, d.Reg.Registrant.Name)
	}
	if reg.Email != d.Reg.Registrant.Email {
		t.Errorf("registrant email %q, want %q", reg.Email, d.Reg.Registrant.Email)
	}
	if reg.Country != d.Reg.Registrant.CountryName {
		t.Errorf("registrant country %q, want %q", reg.Country, d.Reg.Registrant.CountryName)
	}
	when, ok := back.RegistrationDate()
	if !ok || !when.Equal(d.Reg.Created) {
		t.Errorf("registration date %v, want %v", when, d.Reg.Created)
	}
	if len(back.Nameservers) != len(d.Reg.NameServers) {
		t.Errorf("nameservers %d, want %d", len(back.Nameservers), len(d.Reg.NameServers))
	}
	if back.Port43 != d.Reg.WhoisServer {
		t.Errorf("port43 %q", back.Port43)
	}
}

func TestRegistrarEntity(t *testing.T) {
	d := sample(t)
	obj := FromRegistration(&d.Reg)
	rr, ok := obj.ContactByRole("registrar")
	if !ok {
		t.Fatal("no registrar entity")
	}
	if rr.Name != d.Reg.RegistrarName {
		t.Errorf("registrar %q, want %q", rr.Name, d.Reg.RegistrarName)
	}
}

func TestParseRejectsWrongClass(t *testing.T) {
	if _, err := Parse([]byte(`{"objectClassName":"entity"}`)); err == nil {
		t.Fatal("expected class error")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestContactByRoleMissing(t *testing.T) {
	d := sample(t)
	obj := FromRegistration(&d.Reg)
	if _, ok := obj.ContactByRole("billing"); ok {
		t.Error("billing role should be absent")
	}
}

func TestJSONIsValidRDAPShape(t *testing.T) {
	d := sample(t)
	data, err := FromRegistration(&d.Reg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"objectClassName", "ldhName", "events", "entities", "nameservers"} {
		if _, ok := generic[key]; !ok {
			t.Errorf("RDAP JSON missing %q", key)
		}
	}
	if !strings.Contains(string(data), "vcardArray") {
		t.Error("entities missing vcardArray")
	}
}

func TestServerEndToEnd(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 20, Seed: 802})
	srv := NewServer(domains)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &Client{BaseURL: "http://" + addr}
	d := domains[3]
	obj, err := client.Lookup(strings.ToUpper(d.Reg.Domain)) // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if obj.LDHName != d.Reg.Domain {
		t.Errorf("looked up %q, got %q", d.Reg.Domain, obj.LDHName)
	}
	reg, ok := obj.ContactByRole("registrant")
	if !ok || reg.Name != d.Reg.Registrant.Name {
		t.Errorf("registrant over HTTP: %+v", reg)
	}

	// Unknown domains 404 with an RDAP error object.
	if _, err := client.Lookup("does-not-exist.com"); err == nil {
		t.Error("expected not-found error")
	}
}

// TestStructuredVsStatistical demonstrates the paper's closing argument:
// with a structured protocol there is nothing to learn — extraction is
// exact by construction, for every record.
func TestStructuredVsStatistical(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 200, Seed: 803})
	exact := 0
	for _, d := range domains {
		data, err := FromRegistration(&d.Reg).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := obj.ContactByRole("registrant")
		if ok && c.Name == d.Reg.Registrant.Name && c.Email == d.Reg.Registrant.Email &&
			c.City == d.Reg.Registrant.City {
			exact++
		}
	}
	if exact != len(domains) {
		t.Errorf("structured extraction exact for %d/%d records; must be all", exact, len(domains))
	}
}

// goroutinesJoined notes the goroutine count; the returned check polls
// briefly until the count is back at that baseline, so a goroutine the
// code under test started and did not join fails the test.
func goroutinesJoined(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before Listen:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestServerCloseJoinsGoroutines: after lookups over kept-alive
// connections and with one idle connection open, Close leaves no
// goroutine behind: the Serve goroutine is joined and every connection
// is closed.
func TestServerCloseJoinsGoroutines(t *testing.T) {
	joined := goroutinesJoined(t)
	domains := synth.Generate(synth.Config{N: 10, Seed: 803})
	srv := NewServer(domains)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{BaseURL: "http://" + addr}
	for _, d := range domains[:3] {
		if _, err := client.Lookup(d.Reg.Domain); err != nil {
			t.Fatal(err)
		}
	}
	idle, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The Serve goroutine is gone the moment Close returns; connection
	// goroutines may take a moment to see their closed sockets.
	buf := make([]byte, 1<<20)
	if st := string(buf[:runtime.Stack(buf, true)]); strings.Contains(st, "rdap.(*Server).Listen") {
		t.Fatalf("Close returned before the Serve goroutine did:\n%s", st)
	}
	idle.Close()
	joined()
}
