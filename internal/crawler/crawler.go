// Package crawler implements the paper's WHOIS crawler (§4.1): a parallel
// two-step (thin→thick) crawl that *infers* per-server rate limits, since
// servers do not publish them. When a server starts refusing, the crawler
// records the rate it was querying at, backs off well under it, rotates to
// a different source address (the paper used multiple crawl servers), and
// retries each query up to three times before declaring failure.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/whoisclient"
)

// Config tunes a crawl.
type Config struct {
	// Resolver maps server names to addresses (required).
	Resolver whoisclient.Resolver
	// Registry is the thin registry's server name (default
	// registry.RegistryServerName).
	Registry string
	// Sources are local IPs to crawl from; queries rotate across them on
	// rate-limit refusals. Empty means one unbound source.
	Sources []string
	// Workers is the number of concurrent crawl goroutines (default 8).
	Workers int
	// Attempts bounds per-query tries across sources (default 3, §4.1).
	Attempts int
	// InitialInterval seeds each server's pacing interval (default 0: as
	// fast as possible until the first refusal).
	InitialInterval time.Duration
	// MaxInterval caps the inferred pacing interval (default 2s).
	MaxInterval time.Duration
	// Timeout bounds each query (default 10s).
	Timeout time.Duration
	// OnResult, when non-nil, receives every finished Result as soon as
	// its domain completes — the streaming sink hook (cmd/whoiscrawl
	// feeds a store.Sink here so an interrupted crawl keeps everything
	// crawled up to its last checkpoint). Called from worker goroutines;
	// must be safe for concurrent use.
	OnResult func(Result)
	// Log receives structured diagnostics; nil drops them.
	Log *slog.Logger
	// Metrics is the registry crawl counters and stage timings are
	// recorded into (crawler.* and per-host whoisclient.<server>.*);
	// nil means a private registry reachable via Crawler.Metrics.
	Metrics *obs.Registry
}

// Result is the crawl outcome for one domain.
type Result struct {
	Domain      string
	Thin        string
	Thick       string
	WhoisServer string
	Attempts    int
	Err         error
}

// Stats aggregates a crawl.
type Stats struct {
	Total         int64
	ThinOK        int64
	ThickOK       int64
	NoMatch       int64
	Failures      int64
	RateLimitHits int64
	Retries       int64
	Elapsed       time.Duration
}

// Coverage is the fraction of domains with a thick record obtained — the
// paper reports "a bit over 90%".
func (s Stats) Coverage() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.ThickOK) / float64(s.Total)
}

// FailureRate is the fraction of domains that failed after all retries —
// the paper reports roughly 7.5%.
func (s Stats) FailureRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Failures+s.NoMatch) / float64(s.Total)
}

// serverPace is the adaptive pacing state for one server.
type serverPace struct {
	mu          sync.Mutex
	interval    time.Duration // current minimum gap between queries
	nextAllowed time.Time
	backoff     time.Duration // penalty wait after a refusal
	limited     int           // refusals observed
	successes   int
}

// Crawler runs crawls with persistent per-server pacing state, so the
// limits inferred in one batch carry over to the next (the paper records
// each server's limit and "subsequently quer[ies] well under this limit").
type Crawler struct {
	cfg   Config
	reg   *obs.Registry
	met   crawlMetrics
	mu    sync.Mutex
	paces map[string]*serverPace
	cmet  map[string]*whoisclient.Metrics // per-server client counters
}

// crawlMetrics are the crawl-wide counters (per-host counts live in the
// whoisclient.<server>.* and crawler.host.<server>.* families).
type crawlMetrics struct {
	domains     *obs.Counter
	thinOK      *obs.Counter
	thickOK     *obs.Counter
	noMatch     *obs.Counter
	failures    *obs.Counter
	rateLimited *obs.Counter
	retries     *obs.Counter
}

func (m *crawlMetrics) register(reg *obs.Registry) {
	m.domains = reg.Counter("crawler.domains")
	m.thinOK = reg.Counter("crawler.thin.ok")
	m.thickOK = reg.Counter("crawler.thick.ok")
	m.noMatch = reg.Counter("crawler.nomatch")
	m.failures = reg.Counter("crawler.failures")
	m.rateLimited = reg.Counter("crawler.ratelimited")
	m.retries = reg.Counter("crawler.retries")
}

// New builds a Crawler, applying defaults.
func New(cfg Config) (*Crawler, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("crawler: Resolver is required")
	}
	if cfg.Registry == "" {
		cfg.Registry = registry.RegistryServerName
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.MaxInterval <= 0 {
		cfg.MaxInterval = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if len(cfg.Sources) == 0 {
		cfg.Sources = []string{""}
	}
	if cfg.Log == nil {
		cfg.Log = obs.NewLogger("crawler", io.Discard)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Crawler{
		cfg:   cfg,
		reg:   reg,
		paces: make(map[string]*serverPace),
		cmet:  make(map[string]*whoisclient.Metrics),
	}
	c.met.register(reg)
	return c, nil
}

// clientMetrics returns the cached per-server whoisclient counters, so
// retries, timeouts, and bytes are attributable per host.
func (c *Crawler) clientMetrics(server string) *whoisclient.Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.cmet[server]
	if m == nil {
		m = whoisclient.NewMetrics(c.reg, "whoisclient."+server)
		c.cmet[server] = m
	}
	return m
}

func (c *Crawler) pace(server string) *serverPace {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.paces[server]
	if p == nil {
		p = &serverPace{interval: c.cfg.InitialInterval, backoff: 400 * time.Millisecond}
		c.paces[server] = p
	}
	return p
}

// wait blocks until the server's pacing allows another query, reserving
// the slot.
func (p *serverPace) wait(ctx context.Context) error {
	p.mu.Lock()
	now := time.Now()
	start := p.nextAllowed
	if start.Before(now) {
		start = now
	}
	p.nextAllowed = start.Add(p.interval)
	p.mu.Unlock()
	d := time.Until(start)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// onRateLimit records a refusal: double the pacing interval (inferring
// the limit was crossed) and apply an increasing penalty wait.
func (p *serverPace) onRateLimit(maxInterval time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.limited++
	if p.interval == 0 {
		p.interval = 10 * time.Millisecond
	} else {
		p.interval *= 2
	}
	if p.interval > maxInterval {
		p.interval = maxInterval
	}
	p.backoff *= 2
	if p.backoff > maxInterval*4 {
		p.backoff = maxInterval * 4
	}
	if next := time.Now().Add(p.backoff); next.After(p.nextAllowed) {
		p.nextAllowed = next
	}
}

// onSuccess gently decays the interval so the crawler keeps probing for
// the true limit.
func (p *serverPace) onSuccess() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.successes++
	if p.interval > 0 && p.successes%64 == 0 {
		p.interval = time.Duration(float64(p.interval) * 0.9)
	}
}

// InferredRate reports the crawler's learned queries/sec budget for a
// server (+Inf if it never hit a limit).
func (c *Crawler) InferredRate(server string) float64 {
	c.mu.Lock()
	p := c.paces[server]
	c.mu.Unlock()
	if p == nil {
		return math.Inf(1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.interval == 0 {
		return math.Inf(1)
	}
	return float64(time.Second) / float64(p.interval)
}

// LimitedServers lists servers that refused at least once, sorted.
func (c *Crawler) LimitedServers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for s, p := range c.paces {
		p.mu.Lock()
		lim := p.limited
		p.mu.Unlock()
		if lim > 0 {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Crawl fetches thin+thick records for every domain, in parallel.
func (c *Crawler) Crawl(ctx context.Context, domains []string) ([]Result, Stats) {
	start := time.Now()
	results := make([]Result, len(domains))
	var stats Stats
	stats.Total = int64(len(domains))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				results[i] = c.crawlOne(ctx, domains[i], w, &stats)
				if c.cfg.OnResult != nil {
					c.cfg.OnResult(results[i])
				}
			}
		}(w)
	}
feed:
	for i := range domains {
		select {
		case <-ctx.Done():
			break feed
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	stats.Elapsed = time.Since(start)
	return results, stats
}

func (c *Crawler) crawlOne(ctx context.Context, domain string, worker int, stats *Stats) Result {
	res := Result{Domain: domain}
	c.met.domains.Inc()

	thinSpan := c.reg.Start("crawler.thin")
	thin, attempts, err := c.queryWithRetry(ctx, c.cfg.Registry, domain, worker, stats)
	thinSpan.End(err)
	res.Attempts += attempts
	if err != nil {
		res.Err = fmt.Errorf("crawler: thin %s: %w", domain, err)
		if errors.Is(err, whoisclient.ErrNoMatch) {
			atomic.AddInt64(&stats.NoMatch, 1)
			c.met.noMatch.Inc()
		} else {
			atomic.AddInt64(&stats.Failures, 1)
			c.met.failures.Inc()
		}
		return res
	}
	res.Thin = thin
	atomic.AddInt64(&stats.ThinOK, 1)
	c.met.thinOK.Inc()

	server, ok := whoisclient.ExtractReferral(thin)
	if !ok {
		res.Err = whoisclient.ErrNoReferral
		atomic.AddInt64(&stats.Failures, 1)
		c.met.failures.Inc()
		return res
	}
	res.WhoisServer = server

	thickSpan := c.reg.Start("crawler.thick")
	thick, attempts, err := c.queryWithRetry(ctx, server, domain, worker, stats)
	thickSpan.End(err)
	res.Attempts += attempts
	if err != nil {
		res.Err = fmt.Errorf("crawler: thick %s at %s: %w", domain, server, err)
		if errors.Is(err, whoisclient.ErrNoMatch) {
			atomic.AddInt64(&stats.NoMatch, 1)
			c.met.noMatch.Inc()
		} else {
			atomic.AddInt64(&stats.Failures, 1)
			c.met.failures.Inc()
		}
		return res
	}
	res.Thick = thick
	atomic.AddInt64(&stats.ThickOK, 1)
	c.met.thickOK.Inc()
	return res
}

// queryWithRetry paces, queries, and on rate-limit refusals backs off and
// rotates the source address, up to cfg.Attempts total tries.
func (c *Crawler) queryWithRetry(ctx context.Context, server, domain string, worker int, stats *Stats) (string, int, error) {
	p := c.pace(server)
	cm := c.clientMetrics(server)
	hostRetries := c.reg.Counter("crawler.host." + server + ".retries")
	hostLimited := c.reg.Counter("crawler.host." + server + ".ratelimited")
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if err := p.wait(ctx); err != nil {
			return "", attempt, err
		}
		src := c.cfg.Sources[(worker+attempt)%len(c.cfg.Sources)]
		client := &whoisclient.Client{Resolver: c.cfg.Resolver, Timeout: c.cfg.Timeout, LocalIP: src, Metrics: cm}
		resp, err := client.Query(ctx, server, domain)
		switch {
		case err == nil:
			p.onSuccess()
			return resp, attempt + 1, nil
		case errors.Is(err, whoisclient.ErrNoMatch):
			// Negative answers are authoritative; do not retry.
			return "", attempt + 1, err
		case errors.Is(err, whoisclient.ErrRateLimited), errors.Is(err, whoisclient.ErrEmpty):
			atomic.AddInt64(&stats.RateLimitHits, 1)
			atomic.AddInt64(&stats.Retries, 1)
			c.met.rateLimited.Inc()
			c.met.retries.Inc()
			hostLimited.Inc()
			hostRetries.Inc()
			p.onRateLimit(c.cfg.MaxInterval)
			lastErr = err
			c.cfg.Log.Warn("rate limited", "server", server, "domain", domain, "attempt", attempt+1, "source", src)
		default:
			atomic.AddInt64(&stats.Retries, 1)
			c.met.retries.Inc()
			hostRetries.Inc()
			lastErr = err
			c.cfg.Log.Warn("query failed", "server", server, "domain", domain, "attempt", attempt+1, "err", err)
		}
	}
	return "", c.cfg.Attempts, fmt.Errorf("crawler: %d attempts exhausted: %w", c.cfg.Attempts, lastErr)
}
