// Package whoisd implements an RFC 3912 WHOIS server over TCP: the client
// sends one query line terminated by CRLF, the server writes its answer
// and closes the connection. It serves the simulated registry/registrar
// ecosystem of internal/registry, including per-source rate limiting with
// the silent penalty behaviour the paper's crawler had to work around
// (§4.1).
package whoisd

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
)

// RateLimitedResponse is what a penalized source receives. Real servers
// variously return errors, empty answers, or nothing; we use an explicit
// marker the crawler can (but does not have to) recognize.
const RateLimitedResponse = "% Query rate exceeded. Access temporarily denied."

// Handler answers one WHOIS query from a given source IP.
type Handler interface {
	Query(sourceIP, query string) string
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(sourceIP, query string) string

// Query implements Handler.
func (f HandlerFunc) Query(sourceIP, query string) string { return f(sourceIP, query) }

// Server is a TCP WHOIS server for one handler.
type Server struct {
	// Name is the server's logical host name (for logs and directories).
	Name string
	// Handler answers queries.
	Handler Handler
	// ReadTimeout bounds how long the server waits for the query line.
	ReadTimeout time.Duration
	// WriteTimeout bounds how long a response write may stall on a slow
	// or dead reader before the connection is dropped; without it a
	// stalled reader pins the response write (and its goroutine) forever.
	WriteTimeout time.Duration
	// Log, when non-nil, receives structured diagnostics, including
	// per-connection read and write errors. A nil logger drops them.
	Log *slog.Logger

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer builds a server with sane defaults.
func NewServer(name string, h Handler) *Server {
	return &Server{
		Name:         name,
		Handler:      h,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 10 * time.Second,
		conns:        make(map[net.Conn]struct{}),
	}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and starts serving in a
// background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("whoisd %s: listen %s: %w", s.Name, addr, err)
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			if !s.isClosed() {
				s.warn("accept failed", "err", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if s.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil && line == "" {
		// A bare EOF is a client that connected and went away — routine,
		// not diagnostic. Timeouts and resets are worth surfacing.
		if !errors.Is(err, io.EOF) {
			s.warn("read failed", "peer", remoteIP(conn), "err", err)
		}
		return
	}
	query := strings.TrimRight(line, "\r\n")
	sourceIP := remoteIP(conn)
	resp := s.Handler.Query(sourceIP, query)
	if !strings.HasSuffix(resp, "\n") {
		resp += "\n"
	}
	if s.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
	if _, err := conn.Write([]byte(strings.ReplaceAll(resp, "\n", "\r\n"))); err != nil {
		s.warn("write failed", "peer", sourceIP, "err", err)
	}
}

func remoteIP(conn net.Conn) string {
	host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		return conn.RemoteAddr().String()
	}
	return host
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// warn logs a diagnostic tagged with the server name; a nil Log drops
// it.
func (s *Server) warn(msg string, kvs ...any) {
	if s.Log != nil {
		s.Log.Warn(msg, append([]any{"server", s.Name}, kvs...)...)
	}
}

// Close stops the listener, closes live connections, and waits for the
// serving goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

// ErrUnknownServer reports a directory miss.
var ErrUnknownServer = errors.New("whoisd: unknown server name")

// Directory maps logical WHOIS server names to bound TCP addresses — the
// simulation's stand-in for DNS.
type Directory struct {
	mu    sync.RWMutex
	addrs map[string]string
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{addrs: make(map[string]string)} }

// Register binds a server name to an address.
func (d *Directory) Register(name, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[name] = addr
}

// Resolve returns the address for a server name.
func (d *Directory) Resolve(name string) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	addr, ok := d.addrs[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownServer, name)
	}
	return addr, nil
}

// Names lists registered server names.
func (d *Directory) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.addrs))
	for n := range d.addrs {
		out = append(out, n)
	}
	return out
}

// Cluster runs the whole simulated ecosystem: one registry server plus one
// server per registrar, each with its own rate limiter.
type Cluster struct {
	Directory *Directory
	servers   []*Server
}

// ClusterConfig tunes the per-server rate limits.
type ClusterConfig struct {
	// RegistryLimit/RegistrarLimit are queries per Window per source IP;
	// <= 0 disables limiting for that class of server.
	RegistryLimit  int
	RegistrarLimit int
	Window         time.Duration
	Penalty        time.Duration
	// Log receives structured diagnostics; nil drops them.
	Log *slog.Logger
	// Metrics, when non-nil, receives cluster-wide query counters
	// (whoisd.queries, whoisd.ratelimited, whoisd.nomatch).
	Metrics *obs.Registry
	// Parse, when non-nil, enables the "--parse <domain>" query mode on
	// every server in the cluster: the record is looked up as usual
	// (rate limits included), run through the shared parse-serving
	// layer, and answered as a labeled field summary instead of raw
	// text. See ParseQueryPrefix.
	Parse *serve.Server
}

// StartCluster binds every server in the ecosystem to a loopback port.
func StartCluster(eco *registry.Ecosystem, cfg ClusterConfig) (*Cluster, error) {
	c := &Cluster{Directory: NewDirectory()}
	now := time.Now
	mkLimiter := func(limit int) *registry.RateLimiter {
		if limit <= 0 {
			return nil
		}
		return registry.NewRateLimiter(limit, cfg.Window, cfg.Penalty)
	}

	// Cluster-wide counters; a nil Metrics registry means a private one
	// (still counted, just not exported anywhere).
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	queries := reg.Counter("whoisd.queries")
	limited := reg.Counter("whoisd.ratelimited")
	noMatch := reg.Counter("whoisd.nomatch")

	regLim := mkLimiter(cfg.RegistryLimit)
	regSrv := NewServer(registry.RegistryServerName, withParseMode(HandlerFunc(func(src, q string) string {
		queries.Inc()
		if regLim != nil && !regLim.Allow(src, now()) {
			limited.Inc()
			return RateLimitedResponse
		}
		if rec, ok := eco.LookupThin(q); ok {
			return rec
		}
		noMatch.Inc()
		return registry.NoMatch
	}), cfg.Parse))
	regSrv.Log = cfg.Log
	addr, err := regSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.servers = append(c.servers, regSrv)
	c.Directory.Register(registry.RegistryServerName, addr.String())

	for _, name := range eco.Servers {
		name := name
		lim := mkLimiter(cfg.RegistrarLimit)
		srv := NewServer(name, withParseMode(HandlerFunc(func(src, q string) string {
			queries.Inc()
			if lim != nil && !lim.Allow(src, now()) {
				limited.Inc()
				return RateLimitedResponse
			}
			if rec, ok := eco.LookupThick(name, q); ok {
				return rec
			}
			noMatch.Inc()
			return registry.NoMatch
		}), cfg.Parse))
		srv.Log = cfg.Log
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.Directory.Register(name, addr.String())
	}
	return c, nil
}

// Close shuts down every server in the cluster.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		if err := s.Close(); err != nil {
			s.warn("close failed", "err", err)
		}
	}
}

// WaitReady dials every server once to confirm the cluster is accepting.
func (c *Cluster) WaitReady(ctx context.Context) error {
	for _, name := range c.Directory.Names() {
		addr, err := c.Directory.Resolve(name)
		if err != nil {
			return err
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return fmt.Errorf("whoisd: dial %s (%s): %w", name, addr, err)
		}
		conn.Close()
	}
	return nil
}
