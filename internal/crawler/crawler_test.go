package crawler

import (
	"bytes"
	"context"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/whoisd"
)

func startEcosystem(t *testing.T, n int, failFrac float64, limit int) (*whoisd.Cluster, []*synth.Domain) {
	t.Helper()
	domains := synth.Generate(synth.Config{N: n, Seed: 71})
	eco := registry.BuildEcosystem(domains, failFrac)
	cluster, err := whoisd.StartCluster(eco, whoisd.ClusterConfig{
		RegistryLimit:  limit * 10,
		RegistrarLimit: limit,
		Window:         300 * time.Millisecond,
		Penalty:        500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, domains
}

func names(domains []*synth.Domain) []string {
	out := make([]string, len(domains))
	for i, d := range domains {
		out[i] = d.Reg.Domain
	}
	return out
}

func TestNewRequiresResolver(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error without resolver")
	}
}

func TestCrawlHappyPath(t *testing.T) {
	cluster, domains := startEcosystem(t, 40, 0, 0)
	c, err := New(Config{Resolver: cluster.Directory, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	results, stats := c.Crawl(ctx, names(domains))
	if stats.ThickOK != int64(len(domains)) {
		t.Fatalf("thick %d/%d; failures: %+v", stats.ThickOK, len(domains), stats)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if !strings.Contains(strings.ToLower(r.Thin), domains[i].Reg.Domain) {
			t.Errorf("thin record for %s looks wrong", domains[i].Reg.Domain)
		}
		if r.WhoisServer != domains[i].Reg.WhoisServer {
			t.Errorf("referral %q, want %q", r.WhoisServer, domains[i].Reg.WhoisServer)
		}
	}
	if stats.Coverage() != 1 {
		t.Errorf("coverage %v", stats.Coverage())
	}
}

func TestCrawlFailureTail(t *testing.T) {
	cluster, domains := startEcosystem(t, 80, 0.1, 0)
	c, err := New(Config{Resolver: cluster.Directory, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, stats := c.Crawl(ctx, names(domains))
	if stats.NoMatch == 0 {
		t.Error("withheld thick records should produce no-match failures")
	}
	if stats.Coverage() > 0.99 {
		t.Errorf("coverage %.3f despite 10%% withheld records", stats.Coverage())
	}
	if got := stats.FailureRate(); got < 0.02 || got > 0.25 {
		t.Errorf("failure rate %.3f, want near the withheld fraction", got)
	}
}

func TestCrawlRateLimitAdaptation(t *testing.T) {
	cluster, domains := startEcosystem(t, 120, 0, 5)
	c, err := New(Config{
		Resolver:        cluster.Directory,
		Workers:         16,
		Sources:         []string{"127.0.0.2", "127.0.0.3", "127.0.0.4"},
		InitialInterval: time.Millisecond,
		MaxInterval:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, stats := c.Crawl(ctx, names(domains))
	if stats.RateLimitHits == 0 {
		t.Error("tight limits never triggered — the adaptation path is untested")
	}
	if stats.Coverage() < 0.9 {
		t.Errorf("coverage %.3f; adaptation should recover most domains", stats.Coverage())
	}
	if len(c.LimitedServers()) == 0 {
		t.Error("no servers recorded as limited")
	}
	for _, s := range c.LimitedServers() {
		if rate := c.InferredRate(s); rate <= 0 {
			t.Errorf("inferred rate for %s: %v", s, rate)
		}
	}
}

func TestCrawlContextCancellation(t *testing.T) {
	cluster, domains := startEcosystem(t, 50, 0, 0)
	c, err := New(Config{Resolver: cluster.Directory, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before starting
	_, stats := c.Crawl(ctx, names(domains))
	if stats.ThickOK == int64(len(domains)) {
		t.Error("cancelled crawl completed everything")
	}
}

// TestCrawlJoinsGoroutines: Crawl must join its worker fan-out before
// returning, both when every domain is fetched and when the context is
// cancelled mid-crawl.
func TestCrawlJoinsGoroutines(t *testing.T) {
	cluster, domains := startEcosystem(t, 30, 0, 0)
	joined := leakcheck.Joined(t)
	c, err := New(Config{Resolver: cluster.Directory, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, stats := c.Crawl(context.Background(), names(domains)); stats.ThickOK != int64(len(domains)) {
		t.Fatalf("thick %d/%d", stats.ThickOK, len(domains))
	}
	joined()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err = New(Config{Resolver: cluster.Directory, Workers: 4, OnResult: func(Result) { cancel() }})
	if err != nil {
		t.Fatal(err)
	}
	if _, stats := c.Crawl(ctx, names(domains)); stats.ThickOK == int64(len(domains)) {
		t.Error("cancelled crawl completed everything")
	}
	joined()
}

func TestCrawlEmptyList(t *testing.T) {
	cluster, _ := startEcosystem(t, 5, 0, 0)
	c, err := New(Config{Resolver: cluster.Directory})
	if err != nil {
		t.Fatal(err)
	}
	results, stats := c.Crawl(context.Background(), nil)
	if len(results) != 0 || stats.Total != 0 {
		t.Errorf("empty crawl: %d results, %+v", len(results), stats)
	}
}

func TestStatsRates(t *testing.T) {
	s := Stats{Total: 100, ThickOK: 90, NoMatch: 7, Failures: 3}
	if s.Coverage() != 0.9 {
		t.Errorf("coverage %v", s.Coverage())
	}
	if s.FailureRate() != 0.1 {
		t.Errorf("failure rate %v", s.FailureRate())
	}
	var zero Stats
	if zero.Coverage() != 0 || zero.FailureRate() != 0 {
		t.Error("zero stats should have zero rates")
	}
}

func TestPaceBackoffGrows(t *testing.T) {
	p := &serverPace{backoff: 100 * time.Millisecond}
	p.onRateLimit(time.Second)
	first := p.interval
	p.onRateLimit(time.Second)
	if p.interval <= first {
		t.Errorf("interval did not grow: %v -> %v", first, p.interval)
	}
	for i := 0; i < 20; i++ {
		p.onRateLimit(time.Second)
	}
	if p.interval > time.Second {
		t.Errorf("interval exceeded cap: %v", p.interval)
	}
	if p.backoff > 4*time.Second {
		t.Errorf("backoff exceeded cap: %v", p.backoff)
	}
}

func TestPacingPersistsAcrossCrawls(t *testing.T) {
	// §4.1: "we record this limit, subsequently querying well under this
	// limit for that server." The inferred budget must carry over to the
	// next crawl, which should then hit far fewer refusals.
	cluster, domains := startEcosystem(t, 100, 0, 5)
	c, err := New(Config{
		Resolver:        cluster.Directory,
		Workers:         16,
		Sources:         []string{"127.0.0.2", "127.0.0.3", "127.0.0.4"},
		InitialInterval: time.Millisecond,
		MaxInterval:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	_, first := c.Crawl(ctx, names(domains))
	if first.RateLimitHits == 0 {
		t.Skip("first crawl never hit a limit; nothing to compare")
	}
	_, second := c.Crawl(ctx, names(domains))
	if second.RateLimitHits > first.RateLimitHits {
		t.Errorf("second crawl hit MORE limits (%d) than the first (%d) — pacing state not reused",
			second.RateLimitHits, first.RateLimitHits)
	}
	if second.Coverage() < 0.95 {
		t.Errorf("second crawl coverage %.3f", second.Coverage())
	}
}

func TestOnResultStreamsEveryDomain(t *testing.T) {
	cluster, domains := startEcosystem(t, 25, 0, 0)
	var mu sync.Mutex
	seen := make(map[string]int)
	c, err := New(Config{
		Resolver: cluster.Directory,
		Workers:  6,
		OnResult: func(r Result) {
			if r.Err != nil || r.Thick == "" {
				t.Errorf("OnResult got a failed crawl for %s: %v", r.Domain, r.Err)
			}
			mu.Lock()
			seen[r.Domain]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, stats := c.Crawl(ctx, names(domains))
	if stats.ThickOK != int64(len(domains)) {
		t.Fatalf("thick %d/%d", stats.ThickOK, len(domains))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(domains) {
		t.Fatalf("OnResult saw %d distinct domains, want %d", len(seen), len(domains))
	}
	for d, n := range seen {
		if n != 1 {
			t.Errorf("OnResult called %d times for %s, want 1", n, d)
		}
	}
}

// TestNilLogWritesNothing: a whoisd server, a whoisd cluster and a
// crawler with no Log go through a read failure, rate-limited queries
// and a close with an open connection without panicking and without
// writing a byte to stderr or to the default logger.
func TestNilLogWritesNothing(t *testing.T) {
	var std bytes.Buffer
	log.SetOutput(&std)
	defer log.SetOutput(os.Stderr)
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = saved }()

	// A lone server whose silent client hits its read timeout.
	srv := whoisd.NewServer("t", whoisd.HandlerFunc(func(_, q string) string { return q }))
	srv.ReadTimeout = 20 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a silent client")
	}
	conn.Close()
	srv.Close()

	// A cluster whose registrars rate-limit a crawler, then close with
	// an idle connection open.
	cluster, domains := startEcosystem(t, 30, 0, 2)
	c, err := New(Config{Resolver: cluster.Directory, Workers: 4, InitialInterval: time.Millisecond, MaxInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, stats := c.Crawl(ctx, names(domains)); stats.RateLimitHits == 0 {
		t.Fatal("no query was rate limited")
	}
	regAddr, err := cluster.Directory.Resolve(registry.RegistryServerName)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := net.DialTimeout("tcp", regAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Close finds the idle connection either in accept or mid-read; both
	// paths must stay silent.
	cluster.Close()

	if std.Len() != 0 {
		t.Errorf("default logger got %q", std.String())
	}
	if fi, err := stderr.Stat(); err != nil {
		t.Fatal(err)
	} else if fi.Size() != 0 {
		t.Errorf("stderr got %d bytes", fi.Size())
	}
}
