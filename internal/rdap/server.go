package rdap

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

// Server is an HTTP RDAP endpoint serving /domain/{name} lookups over a
// generated corpus — the structured-data counterfactual to the free-text
// WHOIS ecosystem in internal/whoisd. With EnableParsed it additionally
// serves /parsed/{name}: the statistical parser's reading of the raw
// WHOIS text, through the shared serving layer in internal/serve.
type Server struct {
	mu      sync.RWMutex
	domains map[string]*Domain
	records map[string]string // raw WHOIS text, for /parsed/
	parse   ParseBackend
	httpSrv *http.Server
	served  chan struct{} // closed when the Serve goroutine returns
	addr    string
	met     *serverMetrics
}

// ParseBackend is what /parsed/{name} serves through: a plain
// serve.Server (wrapped by EnableParsed) or a cluster node that routes
// the domain to its ring owner first (EnableParsedBackend). The domain
// rides along with the text so a cluster backend can consistent-hash
// it.
type ParseBackend interface {
	ParseDomain(ctx context.Context, domain, text string) (*core.ParsedRecord, error)
}

// serveBackend adapts the single-process serving layer to ParseBackend:
// locally there is no routing decision, the domain is ignored.
type serveBackend struct{ ps *serve.Server }

func (b serveBackend) ParseDomain(ctx context.Context, _, text string) (*core.ParsedRecord, error) {
	return b.ps.Parse(ctx, text)
}

// serverMetrics are the HTTP-layer counters; the parse-serving layer
// below carries its own serve.* metrics in the same registry.
type serverMetrics struct {
	requests *obs.Counter   // rdap.requests: every request, any path
	notFound *obs.Counter   // rdap.notfound: 404 lookups
	parsed   *obs.Histogram // rdap.parsed.seconds: /parsed handler latency
}

// Instrument registers the server's request counters in reg. Call before
// Listen; a server without Instrument records nothing.
func (s *Server) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = &serverMetrics{
		requests: reg.Counter("rdap.requests"),
		notFound: reg.Counter("rdap.notfound"),
		parsed:   reg.Histogram("rdap.parsed.seconds", obs.DurationBounds()),
	}
}

// NewServer indexes the given corpus.
func NewServer(domains []*synth.Domain) *Server {
	s := &Server{domains: make(map[string]*Domain, len(domains))}
	for _, d := range domains {
		s.domains[strings.ToLower(d.Reg.Domain)] = FromRegistration(&d.Reg)
	}
	return s
}

// errorResponse is the RDAP error object.
type errorResponse struct {
	ErrorCode   int      `json:"errorCode"`
	Title       string   `json:"title"`
	Description []string `json:"description,omitempty"`
}

// EnableParsed wires the statistical parse-serving layer into the
// server: GET /parsed/{name} runs the domain's raw WHOIS text through ps
// and answers with the labeled fields as RDAP-flavored JSON. Call before
// Listen; the caller keeps ownership of ps (and closes it after Close).
func (s *Server) EnableParsed(ps *serve.Server, domains []*synth.Domain) {
	s.EnableParsedBackend(serveBackend{ps}, domains)
}

// EnableParsedBackend is EnableParsed over any ParseBackend — the
// cluster entry point: rdapd in cluster mode passes its cluster.Node so
// every /parsed/ request is served by the domain's ring owner.
func (s *Server) EnableParsedBackend(pb ParseBackend, domains []*synth.Domain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parse = pb
	s.records = make(map[string]string, len(domains))
	for _, d := range domains {
		s.records[strings.ToLower(d.Reg.Domain)] = d.Render().Text
	}
}

// ServeHTTP implements http.Handler for /domain/{name} and
// /parsed/{name}.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/rdap+json")
	// RDAP is a read-only protocol here: anything but GET/HEAD is a
	// method error, not a failed lookup.
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{
			ErrorCode: 405, Title: "method not allowed",
			Description: []string{r.Method + " is not supported; use GET or HEAD"}})
		return
	}
	s.mu.RLock()
	met := s.met
	s.mu.RUnlock()
	if met != nil {
		met.requests.Inc()
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/domain/"):
		s.serveDomain(w, strings.ToLower(strings.TrimPrefix(r.URL.Path, "/domain/")))
	case strings.HasPrefix(r.URL.Path, "/parsed/"):
		start := time.Now()
		s.serveParsed(w, r, strings.ToLower(strings.TrimPrefix(r.URL.Path, "/parsed/")))
		if met != nil {
			met.parsed.ObserveSince(start)
		}
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{ErrorCode: 404, Title: "unsupported path"})
	}
}

func (s *Server) serveDomain(w http.ResponseWriter, name string) {
	s.mu.RLock()
	d, ok := s.domains[name]
	met := s.met
	s.mu.RUnlock()
	if !ok {
		if met != nil {
			met.notFound.Inc()
		}
		writeJSON(w, http.StatusNotFound, errorResponse{ErrorCode: 404, Title: "domain not found",
			Description: []string{name + " is not registered here"}})
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) serveParsed(w http.ResponseWriter, r *http.Request, name string) {
	s.mu.RLock()
	ps := s.parse
	text, ok := s.records[name]
	met := s.met
	s.mu.RUnlock()
	if ps == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{ErrorCode: 501,
			Title:       "parsed view not enabled",
			Description: []string{"this server was started without a parser"}})
		return
	}
	if !ok {
		if met != nil {
			met.notFound.Inc()
		}
		writeJSON(w, http.StatusNotFound, errorResponse{ErrorCode: 404, Title: "domain not found",
			Description: []string{name + " is not registered here"}})
		return
	}
	pr, err := ps.ParseDomain(r.Context(), name, text)
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed):
		// Saturation and drain both surface as a retryable 503 — the
		// load-shedding contract of the serving layer made visible.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{ErrorCode: 503,
			Title:       "parse capacity exceeded",
			Description: []string{"the parse queue is full; retry shortly"}})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{ErrorCode: 500,
			Title: "parse failed", Description: []string{err.Error()}})
		return
	}
	writeJSON(w, http.StatusOK, ParsedFromRecord(name, pr))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Listen binds the server to addr ("127.0.0.1:0") and serves in the
// background, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rdap: listen %s: %w", addr, err)
	}
	s.addr = l.Addr().String()
	// Full read/write deadlines, not just the header timeout: a client
	// that stalls mid-body or drains responses one byte at a time must not
	// pin a connection (and its goroutine) forever.
	s.httpSrv = &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.httpSrv.Serve(l)
	}()
	return s.addr, nil
}

// Addr returns the bound address ("" before Listen).
func (s *Server) Addr() string { return s.addr }

// Close shuts the HTTP server down: it closes the listener and every
// open connection, and returns once the Serve goroutine has.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Close()
	<-s.served
	return err
}

// Client fetches RDAP domain objects.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". With a
	// Bootstrap source set it is the fallback for TLDs the bootstrap
	// registry does not map (and for bootstrap fetch failures).
	BaseURL string
	// Bootstrap, when non-nil, resolves the RDAP base serving each
	// domain's TLD from the IANA bootstrap registry (RFC 7484) before
	// falling back to BaseURL — real-world RDAP has no single endpoint.
	Bootstrap *BootstrapSource
	// HTTPClient defaults to a client with a 10s timeout.
	HTTPClient *http.Client
}

// baseFor resolves the server root to query for name.
func (c *Client) baseFor(name string) string {
	if c.Bootstrap != nil {
		if b, err := c.Bootstrap.Get(); err == nil {
			if base, ok := b.BaseFor(name); ok {
				return base
			}
		}
	}
	return c.BaseURL
}

// Lookup fetches and parses /domain/{name}.
func (c *Client) Lookup(name string) (*Domain, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := hc.Get(c.baseFor(name) + "/domain/" + strings.ToLower(name))
	if err != nil {
		return nil, fmt.Errorf("rdap: lookup %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("rdap: %s: not found", name)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rdap: %s: status %d", name, resp.StatusCode)
	}
	var d Domain
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("rdap: decode %s: %w", name, err)
	}
	return &d, nil
}
