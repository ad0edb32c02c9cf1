package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// countingParse returns a ParseFunc that records how many times each
// text was parsed, plus a getter.
func countingParse() (ParseFunc, func(text string) int) {
	var mu sync.Mutex
	calls := make(map[string]int)
	fn := func(text string) *core.ParsedRecord {
		mu.Lock()
		calls[text]++
		mu.Unlock()
		return &core.ParsedRecord{DomainName: text}
	}
	get := func(text string) int {
		mu.Lock()
		defer mu.Unlock()
		return calls[text]
	}
	return fn, get
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCacheHit(t *testing.T) {
	fn, calls := countingParse()
	s := NewFunc(fn, Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	r1, err := s.Parse(ctx, "record a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Parse(ctx, "record a")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("cache hit should return the identical parsed record")
	}
	if got := calls("record a"); got != 1 {
		t.Errorf("parse called %d times, want 1", got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if st.CacheEntries != 1 {
		t.Errorf("CacheEntries = %d, want 1", st.CacheEntries)
	}
}

func TestDistinctTextsDistinctEntries(t *testing.T) {
	fn, calls := countingParse()
	s := NewFunc(fn, Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	for _, text := range []string{"a", "b", "c"} {
		if _, err := s.Parse(ctx, text); err != nil {
			t.Fatal(err)
		}
	}
	for _, text := range []string{"a", "b", "c"} {
		if got := calls(text); got != 1 {
			t.Errorf("parse(%q) called %d times, want 1", text, got)
		}
	}
	if st := s.Stats(); st.CacheEntries != 3 {
		t.Errorf("CacheEntries = %d, want 3", st.CacheEntries)
	}
}

func TestEvictionOrderLRU(t *testing.T) {
	fn, calls := countingParse()
	// One shard so the LRU order is global and deterministic.
	s := NewFunc(fn, Options{Workers: 1, Shards: 1, CacheCapacity: 3})
	defer s.Close()
	ctx := context.Background()

	for _, text := range []string{"a", "b", "c"} {
		if _, err := s.Parse(ctx, text); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a": recency order is now a, c, b (b least recent).
	if _, err := s.Parse(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// "d" evicts exactly one entry — the LRU, which must be "b".
	if _, err := s.Parse(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 3 {
		t.Fatalf("CacheEntries = %d, want 3", st.CacheEntries)
	}
	for _, text := range []string{"a", "c", "d"} {
		if _, err := s.Parse(ctx, text); err != nil {
			t.Fatal(err)
		}
		if got := calls(text); got != 1 {
			t.Errorf("%q re-parsed (%d calls): evicted out of LRU order", text, got)
		}
	}
	if _, err := s.Parse(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if got := calls("b"); got != 2 {
		t.Errorf("parse(\"b\") called %d times, want 2 (evicted as LRU)", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	fn, calls := countingParse()
	s := NewFunc(fn, Options{Workers: 1, CacheCapacity: -1})
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Parse(ctx, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls("x"); got != 3 {
		t.Errorf("parse called %d times with cache disabled, want 3", got)
	}
	if st := s.Stats(); st.CacheEntries != 0 {
		t.Errorf("CacheEntries = %d with cache disabled, want 0", st.CacheEntries)
	}
}

func TestCoalescing(t *testing.T) {
	const waiters = 32
	release := make(chan struct{})
	var mu sync.Mutex
	callCount := 0
	s := NewFunc(func(text string) *core.ParsedRecord {
		mu.Lock()
		callCount++
		mu.Unlock()
		<-release
		return &core.ParsedRecord{DomainName: text}
	}, Options{Workers: 4})
	defer s.Close()

	var wg sync.WaitGroup
	results := make([]*core.ParsedRecord, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Parse(context.Background(), "hot record")
		}(i)
	}
	// All requests are in (one miss in flight, the rest coalesced).
	waitFor(t, "coalesced waiters", func() bool {
		st := s.Stats()
		return st.Misses == 1 && st.Coalesced == waiters-1
	})
	close(release)
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different record pointer", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if callCount != 1 {
		t.Errorf("parse executed %d times for %d concurrent identical requests, want 1",
			callCount, waiters)
	}
}

func TestLoadShedAtQueueCapacity(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := NewFunc(func(text string) *core.ParsedRecord {
		started <- struct{}{}
		<-release
		return &core.ParsedRecord{DomainName: text}
	}, Options{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// Occupy the single worker.
	go s.Parse(context.Background(), "busy")
	<-started
	// Fill the single queue slot.
	go s.Parse(context.Background(), "queued")
	waitFor(t, "queued job", func() bool { return s.Stats().Queued == 1 })

	// The next distinct request must shed, fast and synchronously.
	if _, err := s.Parse(context.Background(), "shed me"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Parse at capacity: err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	// Coalescing onto the queued key must still work while saturated.
	done := make(chan error, 1)
	go func() {
		_, err := s.Parse(context.Background(), "queued")
		done <- err
	}()
	waitFor(t, "coalesce under load", func() bool { return s.Stats().Coalesced == 1 })

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("coalesced waiter: %v", err)
	}
}

func TestParseWaitBlocksInsteadOfShedding(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := NewFunc(func(text string) *core.ParsedRecord {
		started <- struct{}{}
		<-release
		return &core.ParsedRecord{DomainName: text}
	}, Options{Workers: 1, QueueDepth: 1})
	defer s.Close()

	go s.ParseWait(context.Background(), "busy")
	<-started
	go s.ParseWait(context.Background(), "queued")
	waitFor(t, "queued job", func() bool { return s.Stats().Queued == 1 })

	got := make(chan error, 1)
	go func() {
		_, err := s.ParseWait(context.Background(), "backpressured")
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("ParseWait returned early with %v, want blocking backpressure", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("ParseWait after release: %v", err)
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Errorf("Shed = %d under ParseWait, want 0", st.Shed)
	}
}

func TestDrainOnClose(t *testing.T) {
	fn, calls := countingParse()
	slow := func(text string) *core.ParsedRecord {
		time.Sleep(2 * time.Millisecond)
		return fn(text)
	}
	s := NewFunc(slow, Options{Workers: 2, QueueDepth: 64})

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.ParseWait(context.Background(), fmt.Sprintf("rec %d", i))
		}(i)
	}
	// Wait until everything is admitted, then drain.
	waitFor(t, "all admitted", func() bool {
		st := s.Stats()
		return st.Misses == n
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted request %d failed across Close: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if got := calls(fmt.Sprintf("rec %d", i)); got != 1 {
			t.Errorf("rec %d parsed %d times, want 1", i, got)
		}
	}
	// After drain, admission fails fast.
	if _, err := s.Parse(context.Background(), "late"); !errors.Is(err, ErrClosed) {
		t.Errorf("Parse after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.ParseWait(context.Background(), "late"); !errors.Is(err, ErrClosed) {
		t.Errorf("ParseWait after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestServeCloseJoinsWorkers: Close must not return while a worker is
// still parsing, and must leave none of the pool New started behind.
func TestServeCloseJoinsWorkers(t *testing.T) {
	joined := leakcheck.Joined(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := NewFunc(func(text string) *core.ParsedRecord {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return &core.ParsedRecord{DomainName: text}
	}, Options{Workers: 4, QueueDepth: 8})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.ParseWait(context.Background(), fmt.Sprintf("rec %d", i))
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Error(err)
			}
		}(i)
	}
	<-started
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a worker was still parsing")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	joined()
}

func TestParseBatchAlignmentAndDedup(t *testing.T) {
	fn, calls := countingParse()
	s := NewFunc(fn, Options{Workers: 2, QueueDepth: 4})
	defer s.Close()

	texts := []string{"a", "b", "a", "c", "b", "a"}
	out, err := s.ParseBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(texts) {
		t.Fatalf("got %d results for %d texts", len(out), len(texts))
	}
	for i, rec := range out {
		if rec == nil || rec.DomainName != texts[i] {
			t.Errorf("out[%d] = %+v, want record for %q", i, rec, texts[i])
		}
	}
	for _, text := range []string{"a", "b", "c"} {
		if got := calls(text); got != 1 {
			t.Errorf("%q parsed %d times in batch, want 1 (dedup via coalescing)", text, got)
		}
	}
}

func TestContextCancelAbandonsWaitNotParse(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	fn, calls := countingParse()
	s := NewFunc(func(text string) *core.ParsedRecord {
		started <- struct{}{}
		<-release
		return fn(text)
	}, Options{Workers: 1})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Parse(ctx, "slow")
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	// The parse itself keeps running and lands in the cache.
	close(release)
	rec, err := s.Parse(context.Background(), "slow")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.DomainName != "slow" {
		t.Fatalf("post-cancel Parse = %+v", rec)
	}
	if got := calls("slow"); got != 1 {
		t.Errorf("parse executed %d times, want 1 (cancel must not re-trigger)", got)
	}
}

// TestTwinOutlivesLeaderCancel: a request coalesced onto another
// request's call must not inherit that request's cancellation. The
// leader blocks on a full queue and is cancelled; its twins (one
// ParseWait, one ParseBatch) go back to admission and get the record.
func TestTwinOutlivesLeaderCancel(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s := NewFunc(func(text string) *core.ParsedRecord {
		if text == "block" {
			close(started)
			<-release
		}
		return &core.ParsedRecord{DomainName: text}
	}, Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()

	bg := context.Background()
	go s.Parse(bg, "block") // occupies the only worker
	<-started
	go s.Parse(bg, "fill") // fills the queue
	waitFor(t, "full queue", func() bool { return s.Stats().Queued == 1 })

	ctx, cancel := context.WithCancel(bg)
	leader := make(chan error, 1)
	go func() {
		_, err := s.ParseWait(ctx, "z")
		leader <- err
	}()
	waitFor(t, "leader registered", func() bool {
		k := s.hashKey("z", s.Generation())
		sh := &s.shards[int(k.h1)&(len(s.shards)-1)]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.inflight[k] != nil
	})

	type result struct {
		rec *core.ParsedRecord
		err error
	}
	twins := make(chan result, 2)
	go func() {
		rec, err := s.ParseWait(bg, "z")
		twins <- result{rec, err}
	}()
	go func() {
		recs, err := s.ParseBatch(bg, []string{"z"})
		if err != nil {
			twins <- result{nil, err}
			return
		}
		twins <- result{recs[0], nil}
	}()
	waitFor(t, "twins coalesced", func() bool { return s.Stats().Coalesced == 2 })

	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	unblock()
	for i := 0; i < 2; i++ {
		r := <-twins
		if r.err != nil {
			t.Fatalf("twin inherited the leader's error: %v", r.err)
		}
		if r.rec == nil || r.rec.DomainName != "z" {
			t.Fatalf("twin got %+v", r.rec)
		}
	}
}

// TestParseRemote walks ParseRemote's paths: a remote answer is cached
// (or not, when remote says so), a remote failure is answered by a
// local parse into the same entry, and the caller's own cancellation
// neither parses locally nor leaves an entry behind.
func TestParseRemote(t *testing.T) {
	fn, calls := countingParse()
	s := NewFunc(fn, Options{Workers: 1})
	ctx := context.Background()
	var notes []Source
	note := func(src Source) { notes = append(notes, src) }
	answer := func(rec *core.ParsedRecord, cache bool, err error) func(context.Context) (*core.ParsedRecord, bool, error) {
		return func(context.Context) (*core.ParsedRecord, bool, error) { return rec, cache, err }
	}
	check := func(what string, want ...Source) {
		t.Helper()
		if fmt.Sprint(notes) != fmt.Sprint(want) {
			t.Fatalf("%s: noted %v, want %v", what, notes, want)
		}
		notes = nil
	}

	owner := &core.ParsedRecord{DomainName: "owner"}
	if rec, err := s.ParseRemote(ctx, "a", answer(owner, true, nil), note); err != nil || rec != owner {
		t.Fatalf("remote answer: %+v, %v", rec, err)
	}
	check("remote", FromRemote)
	if rec, err := s.Parse(ctx, "a"); err != nil || rec != owner {
		t.Fatalf("Parse after a cached remote answer: %+v, %v", rec, err)
	}
	if rec, _ := s.ParseRemote(ctx, "a", answer(nil, false, errors.New("unused")), note); rec != owner {
		t.Fatalf("hit returned %+v", rec)
	}
	check("hit", FromCache)

	s.ParseRemote(ctx, "b", answer(owner, false, nil), note)
	s.ParseRemote(ctx, "b", answer(owner, false, nil), note)
	check("uncached", FromRemote, FromRemote)

	rec, err := s.ParseRemote(ctx, "c", answer(nil, false, errors.New("owner down")), note)
	if err != nil || rec == nil || rec.DomainName != "c" {
		t.Fatalf("local fallback: %+v, %v", rec, err)
	}
	check("fallback", FromRemote, FromLocal)
	if hit, _ := s.Parse(ctx, "c"); hit != rec {
		t.Fatal("local fallback did not fill the entry")
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.ParseRemote(cctx, "d", answer(nil, false, context.Canceled), note); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: err = %v", err)
	}
	check("cancelled", FromRemote)
	if calls("d") != 0 {
		t.Fatal("a cancelled caller's request was parsed locally")
	}
	if st := s.Stats(); st.Misses != 1 || st.Parsed != 1 || calls("a")+calls("b") != 0 {
		t.Fatalf("misses=%d parsed=%d: only the fallback may count as a local parse", st.Misses, st.Parsed)
	}

	s.Close()
	if _, err := s.ParseRemote(ctx, "d", answer(nil, false, errors.New("owner down")), note); !errors.Is(err, ErrClosed) {
		t.Fatalf("fallback on a closed server: err = %v, want ErrClosed", err)
	}
}

// TestParseNeverWaitsOnRemote: a Parse for a text whose ParseRemote
// call is in flight parses on its own instead of waiting on that call.
// Here the remote answer itself needs that Parse, as when two nodes
// forward the same text to each other; waiting would never end.
func TestParseNeverWaitsOnRemote(t *testing.T) {
	s := NewFunc(func(text string) *core.ParsedRecord {
		return &core.ParsedRecord{DomainName: text}
	}, Options{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec, err := s.ParseRemote(ctx, "e", func(ctx context.Context) (*core.ParsedRecord, bool, error) {
		local, err := s.Parse(ctx, "e")
		if err != nil {
			return nil, false, err
		}
		return &core.ParsedRecord{DomainName: "owner:" + local.DomainName}, true, nil
	}, func(Source) {})
	if err != nil || rec == nil || rec.DomainName != "owner:e" {
		t.Fatalf("ParseRemote got %+v, %v; want the remote answer", rec, err)
	}
	if st := s.Stats(); st.Coalesced != 0 || st.Parsed != 1 {
		t.Fatalf("coalesced=%d parsed=%d, want 0 and 1", st.Coalesced, st.Parsed)
	}
	if hit, _ := s.Parse(ctx, "e"); hit != rec {
		t.Fatalf("cache holds %+v, want the remote answer", hit)
	}
}

func TestStatsLatencyQuantiles(t *testing.T) {
	s := NewFunc(func(text string) *core.ParsedRecord {
		time.Sleep(time.Millisecond)
		return &core.ParsedRecord{DomainName: text}
	}, Options{Workers: 2})
	defer s.Close()
	for i := 0; i < 12; i++ {
		if _, err := s.Parse(context.Background(), fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// The histogram covers every parse since start — no window, and in
	// particular no zero-valued pre-wrap slots dragging quantiles down
	// (the bug class the old ring buffer invited).
	if st.LatencySamples != 12 {
		t.Errorf("LatencySamples = %d, want all 12 parses", st.LatencySamples)
	}
	if st.ParseP50 < time.Millisecond || st.ParseP99 < st.ParseP50 {
		t.Errorf("implausible quantiles: p50=%s p99=%s (parses sleep 1ms)", st.ParseP50, st.ParseP99)
	}
	if st.Parsed != 12 {
		t.Errorf("Parsed = %d, want 12", st.Parsed)
	}
}

// TestMetricsExposed asserts the serve.* metrics land in the registry
// the server was built with — the contract /debug/vars depends on.
func TestMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	fn, _ := countingParse()
	s := NewFunc(fn, Options{Workers: 2, Metrics: reg})
	defer s.Close()
	if s.Metrics() != reg {
		t.Fatal("Metrics() did not return the injected registry")
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Parse(context.Background(), "same"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap["serve.cache.hits"] != uint64(3) {
		t.Errorf("serve.cache.hits = %v, want 3", snap["serve.cache.hits"])
	}
	if snap["serve.cache.misses"] != uint64(1) {
		t.Errorf("serve.cache.misses = %v, want 1", snap["serve.cache.misses"])
	}
	if got := reg.Histogram("serve.parse.seconds", nil).Count(); got != 1 {
		t.Errorf("serve.parse.seconds count = %d, want 1", got)
	}
	if got := snap["serve.cache.entries"]; got != float64(1) {
		t.Errorf("serve.cache.entries = %v, want 1", got)
	}
}

// TestConcurrentMixedLoad hammers the full surface under the race
// detector: hits, misses, coalescing, eviction and shedding all at once.
func TestConcurrentMixedLoad(t *testing.T) {
	fn, _ := countingParse()
	s := NewFunc(fn, Options{Workers: 4, QueueDepth: 8, CacheCapacity: 16, Shards: 4})
	defer s.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				text := fmt.Sprintf("rec %d", (g*7+i)%32)
				if _, err := s.Parse(context.Background(), text); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("leaked work after quiesce: %+v", st)
	}
	if st.CacheEntries > 16 {
		t.Errorf("cache over capacity: %d > 16", st.CacheEntries)
	}
}

func TestPreloadWarmStart(t *testing.T) {
	fn, calls := countingParse()
	s := NewFunc(fn, Options{Workers: 2})
	defer s.Close()

	warm := &core.ParsedRecord{DomainName: "warm.com"}
	s.Preload("warm record text", warm)
	s.Preload("nil is a no-op", nil)

	got, err := s.Parse(context.Background(), "warm record text")
	if err != nil {
		t.Fatal(err)
	}
	if got != warm {
		t.Error("preloaded record not served from cache")
	}
	if n := calls("warm record text"); n != 0 {
		t.Errorf("parse ran %d times for a preloaded text, want 0", n)
	}
	st := s.Stats()
	if st.Preloads != 1 {
		t.Errorf("Preloads = %d, want 1 (nil preload must not count)", st.Preloads)
	}
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1", st.Hits)
	}
	snap := s.Metrics().Snapshot()
	if got := snap["serve.cache.preloads"].(uint64); got != 1 {
		t.Errorf("serve.cache.preloads = %v, want 1", got)
	}
}

func TestPreloadDisabledCacheNoop(t *testing.T) {
	fn, _ := countingParse()
	s := NewFunc(fn, Options{Workers: 1, CacheCapacity: -1})
	defer s.Close()
	s.Preload("text", &core.ParsedRecord{DomainName: "x"})
	if st := s.Stats(); st.Preloads != 0 || st.CacheEntries != 0 {
		t.Errorf("disabled cache accepted a preload: %+v", st)
	}
}

// TestInvalidateAllForcesReparse is the staleness guarantee behind model
// hot swaps: after a generation bump, a request for a previously-cached
// (or preloaded) text must re-parse rather than return the old entry.
func TestInvalidateAllForcesReparse(t *testing.T) {
	fn, calls := countingParse()
	s := NewFunc(fn, Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Parse(ctx, "record a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Parse(ctx, "record a"); err != nil {
		t.Fatal(err)
	}
	if n := calls("record a"); n != 1 {
		t.Fatalf("pre-invalidate parses = %d, want 1 (second request must hit)", n)
	}
	// Preload simulates the store warm-start path; it must be versioned
	// under the same generation scheme.
	s.Preload("warm text", &core.ParsedRecord{DomainName: "warm"})

	gen := s.Generation()
	s.InvalidateAll()
	if got := s.Generation(); got != gen+1 {
		t.Fatalf("Generation after InvalidateAll = %d, want %d", got, gen+1)
	}

	if _, err := s.Parse(ctx, "record a"); err != nil {
		t.Fatal(err)
	}
	if n := calls("record a"); n != 2 {
		t.Errorf("post-invalidate parses = %d, want 2 (stale entry served)", n)
	}
	if _, err := s.Parse(ctx, "warm text"); err != nil {
		t.Fatal(err)
	}
	if n := calls("warm text"); n != 1 {
		t.Errorf("preloaded text parsed %d times after invalidate, want 1", n)
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", st.Invalidations)
	}
}

// TestSetParseFuncSwapsModelAndCache exercises the hot-swap contract:
// the new function serves post-swap requests, and entries cached under
// the old function are never returned afterwards.
func TestSetParseFuncSwapsModelAndCache(t *testing.T) {
	mk := func(version string) ParseFunc {
		return func(text string) *core.ParsedRecord {
			return &core.ParsedRecord{DomainName: text, ModelVersion: version}
		}
	}
	s := NewFunc(mk("v1"), Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	r, err := s.Parse(ctx, "record a")
	if err != nil {
		t.Fatal(err)
	}
	if r.ModelVersion != "v1" {
		t.Fatalf("pre-swap version = %q, want v1", r.ModelVersion)
	}

	s.SetParseFunc(mk("v2"))
	r, err = s.Parse(ctx, "record a")
	if err != nil {
		t.Fatal(err)
	}
	if r.ModelVersion != "v2" {
		t.Errorf("post-swap version = %q, want v2 (stale v1 entry served)", r.ModelVersion)
	}
}

// InvalidateAll bumps the cache generation without changing the parse
// function: every cached entry becomes unreachable at once. O(1) — a
// single atomic pointer swap, no lock sweep; the orphaned entries are
// evicted by LRU pressure as the new generation fills in. Model swaps
// use SetParseFunc, which invalidates and swaps atomically; InvalidateAll
// is the standalone escape hatch (e.g. upstream corpus changed under an
// unchanged model).
func (s *Server) InvalidateAll() {
	for {
		old := s.state.Load()
		if s.state.CompareAndSwap(old, &parseState{fn: old.fn, gen: old.gen + 1}) {
			break
		}
	}
	s.m.invalidations.Inc()
}

// Metrics returns the registry the server records into — the one passed
// via Options.Metrics, or the private one created by default.
func (s *Server) Metrics() *obs.Registry { return s.reg }
