package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// errClient is a ShardClient that fails every call the same way.
type errClient struct{ err error }

func (c errClient) Parse(context.Context, string, string) (*core.ParsedRecord, error) {
	return nil, c.err
}
func (c errClient) FetchModel(context.Context) ([]byte, error)         { return nil, c.err }
func (c errClient) ApplyModel(context.Context, []byte) (string, error) { return "", c.err }
func (c errClient) Status(context.Context) (PeerStatus, error)         { return PeerStatus{}, c.err }
func (c errClient) Close() error                                       { return nil }

func TestNodeRequiresID(t *testing.T) {
	ps := serve.NewFunc(echoParse("x"), serve.Options{Workers: 1})
	defer ps.Close()
	if _, err := NewNode(ps, nil, Options{}); err == nil {
		t.Fatal("NewNode accepted an empty ID")
	}
}

func TestNodeOwnerServesLocally(t *testing.T) {
	reg := obs.NewRegistry()
	n := testNode(t, "solo", echoParse("solo"), Options{Metrics: reg})
	rec, err := n.ParseDomain(context.Background(), "example.com", "text")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "solo" {
		t.Fatalf("served by %q, want solo", rec.Registrar)
	}
	if got := reg.Counter("cluster.local.owned").Value(); got != 1 {
		t.Fatalf("local.owned = %d, want 1", got)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 0 {
		t.Fatalf("forwards = %d, want 0", got)
	}
}

func TestNodeForwardsToOwner(t *testing.T) {
	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: regA})
	b := testNode(t, "node-b", echoParse("node-b"), Options{Metrics: regB})
	link(a, b)
	d := domainOwnedBy(t, a.Ring(), "node-b")

	rec, err := a.ParseDomain(context.Background(), d, "text-"+d)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "node-b" {
		t.Fatalf("%s served by %q, want its owner node-b", d, rec.Registrar)
	}
	if got := regA.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards = %d, want 1", got)
	}
	if got := regB.Counter("cluster.handle.parses").Value(); got != 1 {
		t.Fatalf("peer handled = %d, want 1", got)
	}

	// Second identical request: answered from the remote-result LRU, no
	// second trip to the owner.
	if _, err := a.ParseDomain(context.Background(), d, "text-"+d); err != nil {
		t.Fatal(err)
	}
	if got := regA.Counter("cluster.remote.hits").Value(); got != 1 {
		t.Fatalf("remote.hits = %d, want 1", got)
	}
	if got := regA.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards after cache hit = %d, want still 1", got)
	}
}

func TestNodeForwardCoalesces(t *testing.T) {
	regA := obs.NewRegistry()
	block := make(chan struct{})
	var calls atomic.Int32
	bFn := func(text string) *core.ParsedRecord {
		calls.Add(1)
		<-block
		return &core.ParsedRecord{DomainName: text, Registrar: "node-b"}
	}
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: regA, ForwardTimeout: 10 * time.Second})
	b := testNode(t, "node-b", bFn, Options{})
	link(a, b)
	d := domainOwnedBy(t, a.Ring(), "node-b")

	const concurrent = 8
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := a.ParseDomain(context.Background(), d, "text-"+d)
			if err != nil {
				errs <- err
				return
			}
			if rec.Registrar != "node-b" {
				errs <- fmt.Errorf("served by %q", rec.Registrar)
			}
		}()
	}
	// Wait until at least one twin has joined the in-flight forward,
	// then let the owner's parse finish.
	deadline := time.Now().Add(5 * time.Second)
	for regA.Counter("cluster.forward.coalesced").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no forward ever coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("owner parsed %d times for %d concurrent identical requests", got, concurrent)
	}
}

func TestNodeDegradesOnPeerFailure(t *testing.T) {
	reg := obs.NewRegistry()
	// BackoffBase far beyond the test's runtime: the second request must
	// land inside the failure-backoff window.
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg, BackoffBase: 10 * time.Second})
	a.AddPeer("node-b", errClient{err: errors.New("synthetic peer failure")})
	d1 := domainOwnedBy(t, a.Ring(), "node-b")
	d2 := ""
	for i := 0; i < 10000; i++ {
		d := fmt.Sprintf("other%d.com", i)
		if a.Ring().Lookup(d) == "node-b" {
			d2 = d
			break
		}
	}
	if d2 == "" {
		t.Fatal("no second domain owned by node-b")
	}

	rec, err := a.ParseDomain(context.Background(), d1, "text1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "node-a" {
		t.Fatalf("degraded request served by %q, want local node-a", rec.Registrar)
	}
	if got := reg.Counter("cluster.forward.errors").Value(); got != 1 {
		t.Fatalf("forward.errors = %d, want 1", got)
	}
	if got := reg.Counter("cluster.forward.degraded").Value(); got != 1 {
		t.Fatalf("degraded = %d, want 1", got)
	}

	// The peer is now inside its backoff window: the next request for
	// its keys degrades immediately without touching the wire.
	if _, err := a.ParseDomain(context.Background(), d2, "text2"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards = %d after backoff, want still 1", got)
	}
	if got := reg.Counter("cluster.forward.degraded").Value(); got != 2 {
		t.Fatalf("degraded = %d, want 2", got)
	}
}

func TestNodeHonorsPeerRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
	a.AddPeer("node-b", errClient{err: &OverloadedError{After: 100 * time.Millisecond}})
	var owned []string
	for i := 0; len(owned) < 3 && i < 20000; i++ {
		d := fmt.Sprintf("domain%d.com", i)
		if a.Ring().Lookup(d) == "node-b" {
			owned = append(owned, d)
		}
	}
	if len(owned) < 3 {
		t.Fatal("not enough domains owned by node-b")
	}

	if _, err := a.ParseDomain(context.Background(), owned[0], "t0"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forward.overloaded").Value(); got != 1 {
		t.Fatalf("overloaded = %d, want 1", got)
	}
	// Within the hint: no wire contact.
	if _, err := a.ParseDomain(context.Background(), owned[1], "t1"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards = %d inside Retry-After, want 1", got)
	}
	// After the hint expires the peer is retried.
	time.Sleep(150 * time.Millisecond)
	if _, err := a.ParseDomain(context.Background(), owned[2], "t2"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 2 {
		t.Fatalf("forwards = %d after Retry-After, want 2", got)
	}
}

func TestNodeCancelIsNotPeerFailure(t *testing.T) {
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
	a.AddPeer("node-b", errClient{err: context.Canceled})
	d := domainOwnedBy(t, a.Ring(), "node-b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := a.ParseDomain(ctx, d, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled surfaced", err)
	}
	if got := reg.Counter("cluster.forward.degraded").Value(); got != 0 {
		t.Fatalf("degraded = %d on caller cancellation, want 0", got)
	}
	// The peer must not be blamed: the next request forwards again.
	if _, err := a.ParseDomain(ctx, d, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("second err = %v", err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 2 {
		t.Fatalf("forwards = %d, want 2 (no backoff on cancel)", got)
	}

	// A caller deadline shorter than ForwardTimeout is the caller's
	// too: a healthy but slower owner is neither charged nor backed off.
	reg2 := obs.NewRegistry()
	a2 := testNode(t, "node-a", echoParse("node-a"), Options{
		Metrics: reg2, ForwardTimeout: 10 * time.Second, BackoffBase: 10 * time.Second,
	})
	b2 := testNode(t, "node-b", func(text string) *core.ParsedRecord {
		time.Sleep(200 * time.Millisecond)
		return &core.ParsedRecord{DomainName: text, Registrar: "node-b"}
	}, Options{})
	link(a2, b2)
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer dcancel()
	if _, err := a2.ParseDomain(dctx, d, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded surfaced", err)
	}
	if got := reg2.Counter("cluster.forward.errors").Value(); got != 0 {
		t.Fatalf("forward.errors = %d on the caller's deadline, want 0", got)
	}
	if got := reg2.Counter("cluster.forward.degraded").Value(); got != 0 {
		t.Fatalf("degraded = %d on the caller's deadline, want 0", got)
	}
	if a2.peer("node-b").down() {
		t.Fatal("owner backed off for the caller's deadline")
	}
}

// gateClient holds every Parse until release closes, then answers with
// rec and err; a caller that gives up first gets its context error.
type gateClient struct {
	errClient
	release chan struct{}
	rec     *core.ParsedRecord
}

func (c gateClient) Parse(ctx context.Context, _, _ string) (*core.ParsedRecord, error) {
	select {
	case <-c.release:
		return c.rec, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// waitCount polls a counter until it reaches want.
func waitCount(t *testing.T, c *obs.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter at %d, want %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNodeDegradedForwardTwins: when a forward fails with twins waiting
// on it, one local parse fills the entry and answers all of them. A
// peer's direct request for the same text does not wait on the forward
// (see TestNodeCrossForwardDoesNotWait); it parses on its own.
func TestNodeDegradedForwardTwins(t *testing.T) {
	reg := obs.NewRegistry()
	var parses atomic.Int32
	a := testNode(t, "node-a", func(text string) *core.ParsedRecord {
		parses.Add(1)
		return &core.ParsedRecord{DomainName: text, Registrar: "node-a"}
	}, Options{Metrics: reg, BackoffBase: 10 * time.Second})
	gate := gateClient{errClient: errClient{err: errors.New("synthetic peer failure")}, release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	defer release()
	a.AddPeer("node-b", gate)
	d := domainOwnedBy(t, a.Ring(), "node-b")

	const twins = 8
	recs := make(chan *core.ParsedRecord, twins)
	errs := make(chan error, twins)
	for i := 0; i < twins; i++ {
		go func() {
			rec, err := a.ParseDomain(context.Background(), d, "text")
			recs <- rec
			errs <- err
		}()
	}
	waitCount(t, reg.Counter("cluster.forward.coalesced"), twins-1)
	rec, err := a.HandleParse(context.Background(), d, "text")
	if err != nil || rec == nil || rec.Registrar != "node-a" {
		t.Fatalf("peer request during the forward got %+v, %v; want its own local parse", rec, err)
	}
	if got := a.ps.Stats().Coalesced; got != twins-1 {
		t.Fatalf("serve.coalesced = %d, want %d: the peer request waited on the forward", got, twins-1)
	}
	release()
	for i := 0; i < twins; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if rec := <-recs; rec == nil || rec.Registrar != "node-a" {
			t.Fatalf("twin got %+v, want the local parse", rec)
		}
	}
	if got := parses.Load(); got != 2 {
		t.Fatalf("local parses = %d, want 2 (the peer request's and the degraded forward's)", got)
	}
	if got := reg.Counter("cluster.forward.degraded").Value(); got != 1 {
		t.Fatalf("degraded = %d, want 1", got)
	}
	if st := a.ps.Stats(); st.Misses != 2 || st.Parsed != 2 {
		t.Fatalf("serve misses=%d parsed=%d, want 2 and 2", st.Misses, st.Parsed)
	}
}

// barrierClient holds each forward until the WaitGroup's count of
// forwards has arrived, then delivers it in-process.
type barrierClient struct {
	*InprocClient
	arrived *sync.WaitGroup
}

func (c barrierClient) Parse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	c.arrived.Done()
	c.arrived.Wait()
	return c.InprocClient.Parse(ctx, domain, text)
}

// TestNodeCrossForwardDoesNotWait: two nodes whose rings disagree
// forward the same text to each other at once. Each owner answers the
// other's request with its own parse instead of waiting on its own
// in-flight forward, so neither forward runs into ForwardTimeout and
// no healthy peer is charged or backed off.
func TestNodeCrossForwardDoesNotWait(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	const timeout = 5 * time.Second
	ring := RingOptions{LoadFactor: 1.25}
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: regA, ForwardTimeout: timeout, Ring: ring})
	b := testNode(t, "node-b", echoParse("node-b"), Options{Metrics: regB, ForwardTimeout: timeout, Ring: ring})
	var arrived sync.WaitGroup
	arrived.Add(2)
	a.AddPeer("node-b", barrierClient{&InprocClient{B: b}, &arrived})
	b.AddPeer("node-a", barrierClient{&InprocClient{B: a}, &arrived})

	// Bounded load makes the rings disagree: node-a's own load pushes
	// its domain on to node-b, while node-b's ring sends it to node-a.
	d := domainOwnedBy(t, a.Ring(), "node-a")
	for i := 0; i < 10; i++ {
		a.Ring().Acquire("node-a")
		defer a.Ring().Release("node-a")
	}
	if a.Owner(d) != "node-b" || b.Owner(d) != "node-a" {
		t.Fatalf("owners a→%s b→%s, want each ring to name the other node", a.Owner(d), b.Owner(d))
	}

	start := time.Now()
	var wg sync.WaitGroup
	got := make([]*core.ParsedRecord, 2)
	errs := make([]error, 2)
	for i, n := range []*Node{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = n.ParseDomain(context.Background(), d, "text")
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > timeout/2 {
		t.Fatalf("cross forwards took %v (ForwardTimeout %v): the owners waited on each other", elapsed, timeout)
	}
	// Either owner may answer from its cache once its own forward has
	// settled there, so either node's parse is a right answer.
	for i := range got {
		if errs[i] != nil || got[i] == nil || got[i].DomainName != "text" {
			t.Fatalf("forward %d got %+v, %v", i, got[i], errs[i])
		}
	}
	for _, reg := range []*obs.Registry{regA, regB} {
		if n := reg.Counter("cluster.forward.errors").Value(); n != 0 {
			t.Fatalf("forward.errors = %d, want 0", n)
		}
		if n := reg.Counter("cluster.forward.degraded").Value(); n != 0 {
			t.Fatalf("degraded = %d, want 0", n)
		}
	}
	if a.peer("node-b").down() || b.peer("node-a").down() {
		t.Fatal("a healthy peer was backed off")
	}
}

// TestNodeCachesTemplateForwards: an L0 template answer carries no
// model version, so it is cached even on a node that serves a
// versioned model.
func TestNodeCachesTemplateForwards(t *testing.T) {
	artA, _ := artifacts(t)
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
	a.SetModelArtifact(artA)
	if a.Status().ModelVersion == "" {
		t.Fatal("node-a serves no model version")
	}
	b := testNode(t, "node-b", func(text string) *core.ParsedRecord {
		return &core.ParsedRecord{DomainName: text, Registrar: "node-b", Tier: core.TierTemplate}
	}, Options{})
	link(a, b)
	d := domainOwnedBy(t, a.Ring(), "node-b")
	for i := 0; i < 2; i++ {
		if rec, err := a.ParseDomain(context.Background(), d, "text"); err != nil || rec.Registrar != "node-b" {
			t.Fatalf("request %d: %+v, %v", i, rec, err)
		}
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards = %d, want 1", got)
	}
	if got := reg.Counter("cluster.remote.hits").Value(); got != 1 {
		t.Fatalf("remote.hits = %d, want 1", got)
	}
}

// TestNodeForwardTwinOutlivesLeaderCancel: a twin must not inherit the
// cancellation of the forward it coalesced onto; it forwards itself.
func TestNodeForwardTwinOutlivesLeaderCancel(t *testing.T) {
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg, ForwardTimeout: 10 * time.Second})
	gate := gateClient{release: make(chan struct{}), rec: &core.ParsedRecord{Registrar: "node-b"}}
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	defer release()
	a.AddPeer("node-b", gate)
	d := domainOwnedBy(t, a.Ring(), "node-b")

	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := a.ParseDomain(ctx, d, "text")
		leader <- err
	}()
	waitCount(t, reg.Counter("cluster.forwards"), 1)
	type result struct {
		rec *core.ParsedRecord
		err error
	}
	twin := make(chan result, 1)
	go func() {
		rec, err := a.ParseDomain(context.Background(), d, "text")
		twin <- result{rec, err}
	}()
	waitCount(t, reg.Counter("cluster.forward.coalesced"), 1)
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	waitCount(t, reg.Counter("cluster.forwards"), 2) // the twin now leads
	release()
	r := <-twin
	if r.err != nil || r.rec == nil || r.rec.Registrar != "node-b" {
		t.Fatalf("twin got %+v, %v; want the owner's answer", r.rec, r.err)
	}
	if got := reg.Counter("cluster.forward.errors").Value(); got != 0 {
		t.Fatalf("forward.errors = %d, want 0", got)
	}
}

func TestNodeHandleParseMapsOverload(t *testing.T) {
	ps := serve.NewFunc(echoParse("solo"), serve.Options{Workers: 1})
	n, err := NewNode(ps, nil, Options{ID: "solo", RetryAfterBase: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ps.Close() // ErrClosed from the serving layer must map like overload
	_, err = n.HandleParse(context.Background(), "example.com", "text")
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want OverloadedError", err)
	}
	if ov.After < 200*time.Millisecond || ov.After > 600*time.Millisecond {
		t.Fatalf("Retry-After %s outside the 50-150%% jitter band of 400ms", ov.After)
	}
}

func TestNodeJoinFetchModel(t *testing.T) {
	artA, _ := artifacts(t)
	a := testNode(t, "node-a", echoParse("node-a"), Options{})
	a.SetModelArtifact(artA)
	b := testNode(t, "node-b", echoParse("node-b"), Options{})

	version, err := b.JoinFetchModel(context.Background(), &InprocClient{B: a})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(version, "wmdl-") {
		t.Fatalf("version = %q, want a wmdl-<crc> stamp", version)
	}
	st := b.Status()
	if !st.Ready || st.ModelVersion != version {
		t.Fatalf("status after join = %+v", st)
	}
	// The fetched model now serves, stamping its version on every parse.
	rec, err := b.HandleParse(context.Background(), "example.com", "Domain Name: EXAMPLE.COM\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != version {
		t.Fatalf("parse stamped %q, want %q", rec.ModelVersion, version)
	}
	// The joined node can itself seed the next joiner.
	if _, err := b.ModelArtifact(); err != nil {
		t.Fatalf("joined node has no artifact to serve: %v", err)
	}
}

func TestNodeModelProvider(t *testing.T) {
	artA, artB := artifacts(t)
	a := testNode(t, "node-a", echoParse("node-a"), Options{})
	a.SetModelArtifact(artA) // static bytes that the provider must shadow

	// The provider wins over the static artifact, and is consulted at
	// fetch time — a registry promote between fetches changes what the
	// next joiner receives without touching the node.
	current := &artB
	a.SetModelProvider(func() ([]byte, error) { return *current, nil })

	got, err := a.ModelArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(artB) {
		t.Fatal("provider bytes not served")
	}
	current = &artA
	if got, _ := a.ModelArtifact(); string(got) != string(artA) {
		t.Fatal("provider not consulted per fetch")
	}

	// A failing provider maps to ErrNoModel: joiners stay gated rather
	// than receiving an empty or stale model.
	a.SetModelProvider(func() ([]byte, error) { return nil, errors.New("registry unreadable") })
	if _, err := a.ModelArtifact(); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}

	// Clearing the provider restores the static path, and a joiner can
	// fetch through the provider end to end.
	a.SetModelProvider(nil)
	if got, _ := a.ModelArtifact(); string(got) != string(artA) {
		t.Fatal("static artifact not restored")
	}
	a.SetModelProvider(func() ([]byte, error) { return artB, nil })
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	if _, err := b.JoinFetchModel(context.Background(), &InprocClient{B: a}); err != nil {
		t.Fatal(err)
	}
	if !b.Status().Ready {
		t.Fatal("joiner not ready after provider-backed fetch")
	}
}

func TestNodeJoinFailsClosed(t *testing.T) {
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	if _, err := b.JoinFetchModel(context.Background(), errClient{err: errors.New("fetch refused")}); err == nil {
		t.Fatal("join succeeded against a dead peer")
	}
	if b.Status().Ready {
		t.Fatal("node ready after a failed join")
	}
	if _, err := b.HandleParse(context.Background(), "example.com", "text"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("err = %v, want ErrNotReady", err)
	}
	// A peer with no artifact keeps the joiner gated too.
	empty := testNode(t, "node-c", echoParse("node-c"), Options{})
	if _, err := b.JoinFetchModel(context.Background(), &InprocClient{B: empty}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
}

func TestNodeApplyModelRejectsCorruptArtifact(t *testing.T) {
	artA, _ := artifacts(t)
	n := testNode(t, "solo", echoParse("solo"), Options{})
	genBefore := n.Status().Generation

	if _, err := n.ApplyModel([]byte("not a model")); err == nil {
		t.Fatal("garbage artifact accepted")
	}
	// Valid header, corrupt payload: the CRC verification in ReadModel
	// must refuse the swap.
	corrupt := append([]byte(nil), artA...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if _, err := n.ApplyModel(corrupt); err == nil {
		t.Fatal("corrupt artifact accepted")
	}
	st := n.Status()
	if st.ModelVersion != "" {
		t.Fatalf("version = %q after failed applies, want unchanged", st.ModelVersion)
	}
	if st.Generation != genBefore {
		t.Fatal("cache generation bumped by a failed apply")
	}
	// The old parse function still serves.
	rec, err := n.ParseDomain(context.Background(), "example.com", "text")
	if err != nil || rec.Registrar != "solo" {
		t.Fatalf("old model not serving after failed apply: %v %+v", err, rec)
	}
}

func TestNodeRollout(t *testing.T) {
	_, artB := artifacts(t)
	regs := map[string]*obs.Registry{}
	var nodes []*Node
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		reg := obs.NewRegistry()
		regs[id] = reg
		nodes = append(nodes, testNode(t, id, echoParse(id), Options{Metrics: reg}))
	}
	link(nodes...)
	gensBefore := map[string]uint64{}
	for _, n := range nodes {
		gensBefore[n.ID()] = n.Status().Generation
	}

	rep, err := nodes[0].Rollout(context.Background(), artB, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 3 || rep.Failed != nil {
		t.Fatalf("rollout report %+v, want 3 applied, none failed", rep)
	}
	if rep.Version == "" {
		t.Fatal("rollout produced no version")
	}
	for _, n := range nodes {
		st := n.Status()
		if st.ModelVersion != rep.Version {
			t.Fatalf("%s serves %q after rollout, want %q", n.ID(), st.ModelVersion, rep.Version)
		}
		if st.Generation == gensBefore[n.ID()] {
			t.Fatalf("%s cache generation did not bump on swap", n.ID())
		}
	}
	for id, reg := range regs {
		if got := reg.Counter("cluster.model.applies").Value(); got != 1 {
			t.Fatalf("%s applies = %d, want 1", id, got)
		}
	}
}

func TestNodeRolloutReportsFailures(t *testing.T) {
	_, artB := artifacts(t)
	a := testNode(t, "node-a", echoParse("node-a"), Options{})
	a.AddPeer("node-dead", errClient{err: errors.New("apply refused")})

	rep, err := a.Rollout(context.Background(), artB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 1 || rep.Applied[0] != "node-a" {
		t.Fatalf("applied = %v, want [node-a]", rep.Applied)
	}
	if rep.Failed["node-dead"] == "" {
		t.Fatalf("failed = %v, want node-dead recorded", rep.Failed)
	}
	// The healthy member still swapped.
	if a.Status().ModelVersion != rep.Version {
		t.Fatal("initiating node did not swap")
	}
}

func TestNodeClusterStatus(t *testing.T) {
	a := testNode(t, "node-a", echoParse("node-a"), Options{})
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	link(a, b)
	a.AddPeer("node-dead", errClient{err: errors.New("unreachable")})

	info := a.ClusterStatus(context.Background())
	if info.Self.ID != "node-a" {
		t.Fatalf("self = %+v", info.Self)
	}
	if len(info.Ownership) != 3 {
		t.Fatalf("ownership over %d members, want 3", len(info.Ownership))
	}
	byID := map[string]PeerInfo{}
	for _, p := range info.Peers {
		byID[p.ID] = p
	}
	if byID["node-b"].Status.ID != "node-b" || byID["node-b"].Err != "" {
		t.Fatalf("healthy peer polled wrong: %+v", byID["node-b"])
	}
	if byID["node-dead"].Err == "" {
		t.Fatalf("dead peer reported no error: %+v", byID["node-dead"])
	}
}

func TestNodeRemovePeerRebalances(t *testing.T) {
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	link(a, b)
	d := domainOwnedBy(t, a.Ring(), "node-b")
	v := a.Ring().Version()

	a.RemovePeer("node-b")
	if a.Ring().Version() == v {
		t.Fatal("ring version unchanged after leave")
	}
	if got := a.Ring().Lookup(d); got != "node-a" {
		t.Fatalf("%s owned by %q after leave, want node-a", d, got)
	}
	// The departed member's keys now serve locally.
	rec, err := a.ParseDomain(context.Background(), d, "text-"+d)
	if err != nil || rec.Registrar != "node-a" {
		t.Fatalf("post-leave serve: %v %+v", err, rec)
	}
	if got := reg.Counter("cluster.ring.rebalances").Value(); got != 2 { // join + leave
		t.Fatalf("rebalances = %d, want 2", got)
	}
}

// TestNodeApplyModelOrphansForwarded: a forwarded answer lives in the
// node's serve cache, and a model apply retires it on both swap paths.
// Until the owner swaps too, its answers are returned but not cached.
func TestNodeApplyModelOrphansForwarded(t *testing.T) {
	artA, _ := artifacts(t)
	pa, _ := parsers(t)
	for _, withManager := range []bool{false, true} {
		t.Run(fmt.Sprintf("manager=%v", withManager), func(t *testing.T) {
			reg := obs.NewRegistry()
			var a *Node
			if withManager {
				mgr := lifecycle.New(pa, lifecycle.Options{})
				ps := serve.NewFunc(mgr.ParseFunc(), serve.Options{Workers: 2})
				mgr.Attach(ps)
				t.Cleanup(func() { ps.Close() })
				var err error
				if a, err = NewNode(ps, mgr, Options{ID: "node-a", Metrics: reg, Ring: RingOptions{LoadFactor: -1}}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { a.Close() })
			} else {
				a = testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
			}
			// The owner serves the model a serves now, and keeps serving
			// it after a swaps.
			oldVersion := a.Status().ModelVersion
			b := testNode(t, "node-b", func(text string) *core.ParsedRecord {
				return &core.ParsedRecord{DomainName: text, Registrar: "node-b", ModelVersion: oldVersion}
			}, Options{})
			link(a, b)
			d := domainOwnedBy(t, a.Ring(), "node-b")
			ctx := context.Background()
			forwards := reg.Counter("cluster.forwards")

			fwd, err := a.ParseDomain(ctx, d, "text")
			if err != nil || fwd.Registrar != "node-b" {
				t.Fatalf("forward: %+v, %v", fwd, err)
			}
			// One cache: a local request for the same text is a hit on
			// the forwarded entry.
			if rec, err := a.ps.Parse(ctx, "text"); err != nil || rec != fwd {
				t.Fatalf("local request got %+v, %v; want the forwarded entry", rec, err)
			}

			version, err := a.ApplyModel(artA)
			if err != nil {
				t.Fatal(err)
			}
			if version == oldVersion {
				t.Fatalf("apply kept version %q", version)
			}
			for want := uint64(2); want <= 3; want++ {
				rec, err := a.ParseDomain(ctx, d, "text")
				if err != nil || rec.Registrar != "node-b" {
					t.Fatalf("forward after apply: %+v, %v", rec, err)
				}
				if got := forwards.Value(); got != want {
					t.Fatalf("forwards = %d, want %d: an old-model answer was served from cache", got, want)
				}
			}
			rec, err := a.ps.Parse(ctx, "text")
			if err != nil || rec == fwd || rec.ModelVersion != version {
				t.Fatalf("local request after apply got %+v, %v; want a fresh parse stamped %q", rec, err, version)
			}
		})
	}
}

// registryNode builds a node whose lifecycle manager serves art from a
// fresh model registry, published as default/1.0.0 and promoted to
// serving — a `rdapd -model-registry` node.
func registryNode(t *testing.T, id string, art []byte, opts Options) (*Node, *lifecycle.Manager) {
	t.Helper()
	reg, err := modelreg.Open(t.TempDir(), modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(modelreg.PublishRequest{Family: modelreg.DefaultFamily, Artifact: art}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate(modelreg.DefaultFamily, "1.0.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(modelreg.DefaultFamily, "1.0.0"); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := lifecycle.NewFromRegistry(reg, "", lifecycle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.NewFunc(mgr.ParseFunc(), serve.Options{Workers: 2})
	mgr.Attach(ps)
	t.Cleanup(func() { ps.Close() })
	opts.ID = id
	opts.Ring.LoadFactor = -1
	n, err := NewNode(ps, mgr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, mgr
}

// TestNodeIdentityAcrossLoadPaths: a registry-loaded node, a joined
// node and a node handed the artifact bytes all serve one artifact, so
// they report one model version, and CRF answers forwarded between
// them are cached.
func TestNodeIdentityAcrossLoadPaths(t *testing.T) {
	artA, _ := artifacts(t)
	info, err := store.VerifyModelBytes(artA)
	if err != nil {
		t.Fatal(err)
	}
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a, _ := registryNode(t, "node-a", artA, Options{Metrics: regA})
	a.SetModelArtifact(artA)
	b := testNode(t, "node-b", echoParse("node-b"), Options{Metrics: regB})
	if _, err := b.JoinFetchModel(context.Background(), &InprocClient{B: a}); err != nil {
		t.Fatal(err)
	}
	c := testNode(t, "node-c", echoParse("node-c"), Options{})
	c.SetModelArtifact(artA)
	for _, n := range []*Node{a, b, c} {
		if got := n.Status().ModelVersion; got != info.ID() {
			t.Fatalf("%s serves %q, want %q", n.ID(), got, info.ID())
		}
	}

	link(a, b)
	for _, tc := range []struct {
		from, owner *Node
		reg         *obs.Registry
	}{{a, b, regA}, {b, a, regB}} {
		d := domainOwnedBy(t, tc.from.Ring(), tc.owner.ID())
		text := "Domain Name: " + d + "\r\nRegistrar: Example Registrar, Inc.\r\nRegistrant Country: US\r\n"
		for i := 0; i < 2; i++ {
			rec, err := tc.from.ParseDomain(context.Background(), d, text)
			if err != nil {
				t.Fatal(err)
			}
			if rec.ModelVersion != info.ID() {
				t.Fatalf("%s → %s: stamped %q, want %q", tc.from.ID(), tc.owner.ID(), rec.ModelVersion, info.ID())
			}
		}
		if got := tc.reg.Counter("cluster.forwards").Value(); got != 1 {
			t.Fatalf("%s forwards = %d, want 1", tc.from.ID(), got)
		}
		if got := tc.reg.Counter("cluster.remote.hits").Value(); got != 1 {
			t.Fatalf("%s remote.hits = %d, want 1", tc.from.ID(), got)
		}
	}
}

// TestNodeApplyServingArtifactIsNoop: after a promote, rdapd swaps the
// promoting node through ReloadServing and then rolls the same artifact
// out to the ring, the promoting node included. Applying the artifact a
// node already serves must not swap it again: the cache generation and
// the snapshot's registry coordinates (the next retrain's parent link)
// stay as they are.
func TestNodeApplyServingArtifactIsNoop(t *testing.T) {
	artA, _ := artifacts(t)
	n, mgr := registryNode(t, "node-a", artA, Options{})
	before, gen := mgr.Current(), n.Status().Generation

	version, err := n.ApplyModel(artA)
	if err != nil {
		t.Fatal(err)
	}
	after := mgr.Current()
	if version != before.Version || after != before {
		t.Fatalf("apply of the serving artifact swapped: %q (%s, %q) -> %q (%s, %q)",
			before.Version, before.SemVer, before.Path, after.Version, after.SemVer, after.Path)
	}
	if got := n.Status().Generation; got != gen {
		t.Fatalf("cache generation %d -> %d", gen, got)
	}
	if !n.Status().Ready {
		t.Fatal("node not ready after apply")
	}
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.id }

// RemovePeer drops a member, rebalances the ring, and closes the
// peer's client. Keys it owned redistribute to the survivors; cached
// answers it gave age out by LRU.
func (n *Node) RemovePeer(id string) {
	n.pmu.Lock()
	p, ok := n.peers[id]
	delete(n.peers, id)
	n.pmu.Unlock()
	if ok {
		p.client.Close()
	}
	if n.ring.Remove(id) {
		n.met.rebalances.Inc()
		n.log.Info("peer left", "peer", id, "members", n.ring.Len())
	}
}

// Owner returns the member currently owning domain under the
// bounded-load rule.
func (n *Node) Owner(domain string) string { return n.ring.LookupBounded(domain) }
