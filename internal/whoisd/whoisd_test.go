package whoisd

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/whoisclient"
)

func echoHandler(src, q string) string { return "query=" + q + " from=" + src }

func startServer(t *testing.T, h Handler) (*Server, string) {
	t.Helper()
	s := NewServer("test", h)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func rawQuery(t *testing.T, addr, query string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(query + "\r\n")); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestServerAnswersQuery(t *testing.T) {
	_, addr := startServer(t, HandlerFunc(echoHandler))
	resp := rawQuery(t, addr, "example.com")
	if !strings.Contains(resp, "query=example.com") {
		t.Errorf("response %q", resp)
	}
	if !strings.Contains(resp, "from=127.0.0.1") {
		t.Errorf("source IP missing: %q", resp)
	}
}

func TestServerCRLFTermination(t *testing.T) {
	_, addr := startServer(t, HandlerFunc(func(src, q string) string { return "line1\nline2" }))
	resp := rawQuery(t, addr, "x")
	if !strings.Contains(resp, "line1\r\nline2") {
		t.Errorf("RFC 3912 responses use CRLF; got %q", resp)
	}
}

func TestServerStripsCRFromQuery(t *testing.T) {
	var got string
	var mu sync.Mutex
	_, addr := startServer(t, HandlerFunc(func(src, q string) string {
		mu.Lock()
		got = q
		mu.Unlock()
		return "ok"
	}))
	rawQuery(t, addr, "domain.com")
	mu.Lock()
	defer mu.Unlock()
	if got != "domain.com" {
		t.Errorf("query received as %q", got)
	}
}

func TestServerConcurrentConnections(t *testing.T) {
	_, addr := startServer(t, HandlerFunc(echoHandler))
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			conn.Write([]byte("q\r\n"))
			buf := make([]byte, 1024)
			conn.Read(buf)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, _ := startServer(t, HandlerFunc(echoHandler))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	d.Register("whois.a.com", "127.0.0.1:4343")
	addr, err := d.Resolve("whois.a.com")
	if err != nil || addr != "127.0.0.1:4343" {
		t.Errorf("resolve: %q, %v", addr, err)
	}
	if _, err := d.Resolve("whois.b.com"); err == nil {
		t.Error("unknown name resolved")
	}
	if len(d.Names()) != 1 {
		t.Errorf("names: %v", d.Names())
	}
}

func TestClusterEndToEnd(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 30, Seed: 60})
	eco := registry.BuildEcosystem(domains, 0)
	cluster, err := StartCluster(eco, ClusterConfig{Window: time.Second, Penalty: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	client := &whoisclient.Client{Resolver: cluster.Directory}
	d := domains[0]

	// Thin lookup at the registry.
	thin, err := client.Query(ctx, registry.RegistryServerName, d.Reg.Domain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(thin, d.Reg.RegistrarName) {
		t.Error("thin record missing registrar")
	}

	// Referral extraction and two-step lookup.
	server, ok := whoisclient.ExtractReferral(thin)
	if !ok || server != d.Reg.WhoisServer {
		t.Fatalf("referral %q, want %q", server, d.Reg.WhoisServer)
	}
	res, err := client.LookupThick(ctx, registry.RegistryServerName, d.Reg.Domain)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reg.Privacy && !strings.Contains(res.Thick, d.Reg.Registrant.Name) {
		t.Error("thick record missing registrant name")
	}

	// Unknown domain gets the no-match answer.
	if _, err := client.Query(ctx, registry.RegistryServerName, "missing.com"); err == nil {
		t.Error("expected no-match error")
	}
}

func TestClusterRateLimiting(t *testing.T) {
	domains := synth.Generate(synth.Config{N: 10, Seed: 61})
	eco := registry.BuildEcosystem(domains, 0)
	cluster, err := StartCluster(eco, ClusterConfig{
		RegistryLimit: 3, RegistrarLimit: 3,
		Window: 2 * time.Second, Penalty: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	client := &whoisclient.Client{Resolver: cluster.Directory}
	var limited bool
	for i := 0; i < 6; i++ {
		_, err := client.Query(ctx, registry.RegistryServerName, domains[0].Reg.Domain)
		if err != nil {
			if !strings.Contains(err.Error(), "rate limited") {
				t.Fatalf("unexpected error: %v", err)
			}
			limited = true
		}
	}
	if !limited {
		t.Error("limit of 3 never triggered across 6 rapid queries")
	}
}

func TestServerSurvivesMalformedInput(t *testing.T) {
	_, addr := startServer(t, HandlerFunc(echoHandler))
	// Binary garbage without a newline, then connection close.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x00, 0xff, 0xfe, 0x01})
	conn.Close()

	// The server must still answer subsequent well-formed queries.
	resp := rawQuery(t, addr, "after-garbage.com")
	if !strings.Contains(resp, "after-garbage.com") {
		t.Errorf("server wedged after malformed input: %q", resp)
	}
}

func TestServerReadTimeoutDropsSilentClients(t *testing.T) {
	s := NewServer("t", HandlerFunc(echoHandler))
	s.ReadTimeout = 100 * time.Millisecond
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server should close on us quickly.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	start := time.Now()
	_, rerr := conn.Read(buf)
	if rerr == nil {
		t.Skip("server answered an empty query; acceptable")
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("silent client held for %v", time.Since(start))
	}
}

// openIdleConn dials s and waits until s is serving the connection, so
// Close finds it mid-read.
func openIdleConn(t *testing.T, s *Server, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n > 0 {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatal("server never picked up the connection")
		}
	}
}

// TestServerCloseJoinsGoroutines: a server with an idle open connection
// leaves no goroutine behind once Close returns.
func TestServerCloseJoinsGoroutines(t *testing.T) {
	joined := leakcheck.Joined(t)
	s := NewServer("t", HandlerFunc(echoHandler))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := openIdleConn(t, s, addr.String())
	defer conn.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	joined()
}

// TestClusterCloseJoinsGoroutines: the same for a whole cluster, with an
// idle connection open to its registry server.
func TestClusterCloseJoinsGoroutines(t *testing.T) {
	joined := leakcheck.Joined(t)
	eco := registry.BuildEcosystem(synth.Generate(synth.Config{N: 10, Seed: 62}), 0)
	c, err := StartCluster(eco, ClusterConfig{RegistryLimit: 5, Window: time.Second, Penalty: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Directory.Resolve(registry.RegistryServerName)
	if err != nil {
		t.Fatal(err)
	}
	conn := openIdleConn(t, c.servers[0], addr)
	defer conn.Close()
	c.Close()
	joined()
}
