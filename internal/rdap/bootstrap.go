package rdap

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// Bootstrap is the IANA RDAP bootstrap registry for DNS (the dns.json
// document of RFC 7484): a mapping from TLD to the RDAP base URLs of
// the registry serving it. Real-world RDAP has no single endpoint —
// "who is .com?" is itself a lookup — so a client first resolves the
// domain's TLD through this registry, then queries the returned base.
type Bootstrap struct {
	// Publication is the document's publication timestamp, verbatim.
	Publication string
	// Version is the registry format version ("1.0").
	Version string
	// services maps lowercase TLD → base URL (first HTTPS URL of the
	// service entry, trailing slash trimmed).
	services map[string]string
}

// bootstrapDoc is the wire shape: services is a list of
// [[tld, ...], [url, ...]] pairs.
type bootstrapDoc struct {
	Description string       `json:"description"`
	Publication string       `json:"publication"`
	Version     string       `json:"version"`
	Services    [][][]string `json:"services"`
}

// ParseBootstrap parses a dns.json bootstrap document.
func ParseBootstrap(data []byte) (*Bootstrap, error) {
	var doc bootstrapDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("rdap: bootstrap: %w", err)
	}
	b := &Bootstrap{
		Publication: doc.Publication,
		Version:     doc.Version,
		services:    make(map[string]string),
	}
	for _, svc := range doc.Services {
		if len(svc) != 2 || len(svc[0]) == 0 || len(svc[1]) == 0 {
			continue
		}
		base := pickBase(svc[1])
		if base == "" {
			continue
		}
		for _, tld := range svc[0] {
			b.services[strings.ToLower(tld)] = base
		}
	}
	if len(b.services) == 0 {
		return nil, fmt.Errorf("rdap: bootstrap: no usable service entries")
	}
	return b, nil
}

// pickBase chooses a service entry's base URL: the first HTTPS URL,
// else the first URL. Trailing slashes are trimmed so Lookup's
// "/domain/" join is uniform.
func pickBase(urls []string) string {
	pick := ""
	for _, u := range urls {
		if u == "" {
			continue
		}
		if pick == "" {
			pick = u
		}
		if strings.HasPrefix(u, "https://") {
			pick = u
			break
		}
	}
	return strings.TrimRight(pick, "/")
}

// LoadBootstrapFile parses a bootstrap document from disk — the
// fixture-backed path used in tests and offline runs.
func LoadBootstrapFile(path string) (*Bootstrap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rdap: bootstrap: %w", err)
	}
	return ParseBootstrap(data)
}

// BaseFor resolves the RDAP base URL serving domain (matched by its
// final label). The second return is false when the registry has no
// entry for the TLD.
func (b *Bootstrap) BaseFor(domain string) (string, bool) {
	name := strings.ToLower(strings.TrimSuffix(domain, "."))
	tld := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		tld = name[i+1:]
	}
	base, ok := b.services[tld]
	return base, ok
}

// BootstrapSource fetches and caches a bootstrap document. The zero
// value is unusable; set URL or Path. Safe for concurrent use.
type BootstrapSource struct {
	// URL is the registry location (IANA publishes
	// https://data.iana.org/rdap/dns.json); fetched lazily.
	URL string
	// Path, when set, reads the document from disk instead — fixtures,
	// or an operator-managed mirror.
	Path string
	// TTL bounds how long a fetched document is reused; <= 0 means 24h
	// (the registry changes on the cadence of TLD delegations).
	TTL time.Duration
	// HTTPClient defaults to a client with a 10s timeout.
	HTTPClient *http.Client

	mu        sync.Mutex
	cached    *Bootstrap
	fetchedAt time.Time
}

// Get returns the current bootstrap document, refetching only when the
// cache is empty or older than TTL. A refresh failure returns the stale
// document when one is cached — a flaky registry should not take down
// lookups that were working a second ago.
func (s *BootstrapSource) Get() (*Bootstrap, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ttl := s.TTL
	if ttl <= 0 {
		ttl = 24 * time.Hour
	}
	if s.cached != nil && time.Since(s.fetchedAt) < ttl {
		return s.cached, nil
	}
	b, err := s.fetch()
	if err != nil {
		if s.cached != nil {
			return s.cached, nil
		}
		return nil, err
	}
	s.cached = b
	s.fetchedAt = time.Now()
	return b, nil
}

func (s *BootstrapSource) fetch() (*Bootstrap, error) {
	if s.Path != "" {
		return LoadBootstrapFile(s.Path)
	}
	if s.URL == "" {
		return nil, fmt.Errorf("rdap: bootstrap source has no URL or Path")
	}
	hc := s.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := hc.Get(s.URL)
	if err != nil {
		return nil, fmt.Errorf("rdap: bootstrap fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rdap: bootstrap fetch: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("rdap: bootstrap fetch: %w", err)
	}
	return ParseBootstrap(data)
}
