package rdap

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

func fixtureBootstrap(t *testing.T) *Bootstrap {
	t.Helper()
	b, err := LoadBootstrapFile(filepath.Join("testdata", "dns_bootstrap.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseBootstrapFixture(t *testing.T) {
	b := fixtureBootstrap(t)
	if b.Version != "1.0" || b.Publication == "" {
		t.Fatalf("header = %q %q", b.Version, b.Publication)
	}
	// com, net, org, info (the empty-urls entry contributes nothing).
	if b.TLDs() != 4 {
		t.Fatalf("TLDs = %d", b.TLDs())
	}

	cases := []struct {
		domain, base string
		ok           bool
	}{
		{"example.com", "https://rdap.example-registry.test/com/v1", true},
		{"EXAMPLE.NET.", "https://rdap.example-registry.test/com/v1", true},
		{"deep.sub.example.com", "https://rdap.example-registry.test/com/v1", true},
		// org lists HTTP first; the HTTPS URL must win.
		{"example.org", "https://rdap.example-org.test", true},
		// info has only HTTP; still usable.
		{"example.info", "http://rdap.example-info.test/rdap", true},
		{"example.dev", "", false},
	}
	for _, c := range cases {
		base, ok := b.BaseFor(c.domain)
		if ok != c.ok || base != c.base {
			t.Errorf("BaseFor(%q) = %q, %v; want %q, %v", c.domain, base, ok, c.base, c.ok)
		}
	}
}

func TestParseBootstrapRejects(t *testing.T) {
	if _, err := ParseBootstrap([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseBootstrap([]byte(`{"version":"1.0","services":[]}`)); err == nil {
		t.Fatal("empty registry accepted")
	}
	if _, err := LoadBootstrapFile("testdata/absent.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBootstrapSourceCachesAndFallsBackStale(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dns.json")
	doc := func(tld, base string) string {
		return fmt.Sprintf(`{"version":"1.0","services":[[[%q],[%q]]]}`, tld, base)
	}
	if err := os.WriteFile(path, []byte(doc("com", "https://one.test/")), 0o644); err != nil {
		t.Fatal(err)
	}

	src := &BootstrapSource{Path: path, TTL: time.Hour}
	b, err := src.Get()
	if err != nil {
		t.Fatal(err)
	}
	if base, _ := b.BaseFor("x.com"); base != "https://one.test" {
		t.Fatalf("base = %q", base)
	}

	// Within TTL the file is not re-read.
	if err := os.WriteFile(path, []byte(doc("com", "https://two.test/")), 0o644); err != nil {
		t.Fatal(err)
	}
	b, _ = src.Get()
	if base, _ := b.BaseFor("x.com"); base != "https://one.test" {
		t.Fatalf("cache bypassed: base = %q", base)
	}

	// Expired TTL picks up the new document.
	src.fetchedAt = time.Now().Add(-2 * time.Hour)
	b, _ = src.Get()
	if base, _ := b.BaseFor("x.com"); base != "https://two.test" {
		t.Fatalf("refresh missed: base = %q", base)
	}

	// A failed refresh serves the stale document instead of erroring.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	src.fetchedAt = time.Now().Add(-2 * time.Hour)
	b, err = src.Get()
	if err != nil {
		t.Fatal(err)
	}
	if base, _ := b.BaseFor("x.com"); base != "https://two.test" {
		t.Fatalf("stale fallback: base = %q", base)
	}

	// No cache and no source: error.
	if _, err := (&BootstrapSource{}).Get(); err == nil {
		t.Fatal("empty source returned a document")
	}
}

func TestClientLooksUpThroughBootstrap(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 8, Seed: 803})
	srv := NewServer(domains)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	target := domains[0].Reg.Domain
	tld := target[strings.LastIndexByte(target, '.')+1:]

	// The bootstrap registry maps this domain's TLD at the live server;
	// BaseURL points into a black hole that must never be contacted for
	// mapped TLDs.
	path := filepath.Join(t.TempDir(), "dns.json")
	doc := fmt.Sprintf(`{"version":"1.0","services":[[[%q],["http://%s/"]]]}`, tld, addr)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	client := &Client{
		BaseURL:   "http://127.0.0.1:1", // unroutable fallback
		Bootstrap: &BootstrapSource{Path: path},
	}
	obj, err := client.Lookup(target)
	if err != nil {
		t.Fatal(err)
	}
	if obj.LDHName != target {
		t.Fatalf("looked up %q, got %q", target, obj.LDHName)
	}

	// An unmapped TLD falls back to BaseURL — here a live server again,
	// proving the fallback path actually queries.
	client2 := &Client{BaseURL: "http://" + addr, Bootstrap: &BootstrapSource{Path: path}}
	if _, err := client2.Lookup("unmapped.zz-not-in-registry"); err == nil {
		t.Fatal("lookup of absent domain succeeded")
	} else if !strings.Contains(err.Error(), "not found") {
		t.Fatalf("fallback did not reach the server: %v", err)
	}
}

// TLDs returns the number of TLDs the registry maps.
func (b *Bootstrap) TLDs() int { return len(b.services) }
