package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// Options configures a Node. ID is required; everything else has a
// default.
type Options struct {
	// ID is the node's stable ring identity (typically its advertised
	// shard address).
	ID string
	// Addr is the advertised shard-protocol address, reported in
	// Status; empty for in-process nodes.
	Addr string

	// Ring tunes the consistent-hash ring (vnode count, bounded-load
	// factor).
	Ring RingOptions

	// ForwardTimeout bounds one forwarded parse; <= 0 means 2s. A peer
	// that cannot answer within it is marked down and the request
	// degrades to a local cold parse.
	ForwardTimeout time.Duration
	// ApplyTimeout bounds one remote ApplyModel during a rollout
	// (artifact transfer + verify + swap); <= 0 means 30s.
	ApplyTimeout time.Duration
	// BackoffBase is the first per-peer failure backoff; doubles per
	// consecutive failure up to BackoffMax, jittered ±50%. <= 0 means
	// 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the failure backoff; <= 0 means 5s.
	BackoffMax time.Duration
	// RetryAfterBase is the Retry-After hint this node attaches when
	// it sheds a peer's forwarded parse, jittered to 50-150% so a
	// fleet of forwarders spreads its retries; <= 0 means 1s.
	RetryAfterBase time.Duration

	// Metrics receives cluster.* metrics; nil means a private registry.
	Metrics *obs.Registry
	// Log receives cluster events; nil discards.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 2 * time.Second
	}
	if o.ApplyTimeout <= 0 {
		o.ApplyTimeout = 30 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.RetryAfterBase <= 0 {
		o.RetryAfterBase = time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Log == nil {
		o.Log = obs.NewLogger("cluster", io.Discard)
	}
	return o
}

type nodeMetrics struct {
	localOwned  *obs.Counter   // cluster.local.owned: requests this node owned and served
	handled     *obs.Counter   // cluster.handle.parses: parses served on behalf of peers
	forwards    *obs.Counter   // cluster.forwards: requests forwarded to an owner
	forwardErrs *obs.Counter   // cluster.forward.errors: forwards that failed (non-overload)
	overloaded  *obs.Counter   // cluster.forward.overloaded: forwards shed by the owner
	degraded    *obs.Counter   // cluster.forward.degraded: forwards that fell back to local parse
	remoteHits  *obs.Counter   // cluster.remote.hits: forwards answered from the serve cache
	coalesced   *obs.Counter   // cluster.forward.coalesced: forwards that joined an in-flight twin
	rebalances  *obs.Counter   // cluster.ring.rebalances: membership changes
	applies     *obs.Counter   // cluster.model.applies: models applied (join or rollout)
	fetches     *obs.Counter   // cluster.model.fetches: artifacts served to joining peers
	rollouts    *obs.Counter   // cluster.rollouts: coordinated swaps initiated here
	forwardTime *obs.Histogram // cluster.forward.seconds
}

func newNodeMetrics(reg *obs.Registry) nodeMetrics {
	return nodeMetrics{
		localOwned:  reg.Counter("cluster.local.owned"),
		handled:     reg.Counter("cluster.handle.parses"),
		forwards:    reg.Counter("cluster.forwards"),
		forwardErrs: reg.Counter("cluster.forward.errors"),
		overloaded:  reg.Counter("cluster.forward.overloaded"),
		degraded:    reg.Counter("cluster.forward.degraded"),
		remoteHits:  reg.Counter("cluster.remote.hits"),
		coalesced:   reg.Counter("cluster.forward.coalesced"),
		rebalances:  reg.Counter("cluster.ring.rebalances"),
		applies:     reg.Counter("cluster.model.applies"),
		fetches:     reg.Counter("cluster.model.fetches"),
		rollouts:    reg.Counter("cluster.rollouts"),
		forwardTime: reg.Histogram("cluster.forward.seconds", obs.DurationBounds()),
	}
}

// peer is one remote member: its client plus failure-backoff state.
type peer struct {
	id     string
	client ShardClient

	failures  atomic.Uint32
	downUntil atomic.Int64 // unix nanos; 0 = up
}

func (p *peer) down() bool {
	until := p.downUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

func (p *peer) markDown(d time.Duration) {
	p.downUntil.Store(time.Now().Add(d).UnixNano())
}

func (p *peer) reset() {
	p.failures.Store(0)
	p.downUntil.Store(0)
}

// Node is one member of the serving cluster: it owns a slice of the
// ring, serves its slice from the local serve.Server, forwards the rest
// to owners, and participates in model distribution and coordinated
// hot swaps. Node implements Backend (the receiving side of the shard
// protocol) and rdap.ParseBackend (the serving side of /parsed/).
type Node struct {
	opts Options
	id   string
	ring *Ring
	ps   *serve.Server
	mgr  *lifecycle.Manager // optional; nil = plain serve.Server
	log  *slog.Logger
	met  nodeMetrics

	// peers maps member id -> peer. Guarded by pmu; the ring is the
	// routing source of truth, peers the transport directory.
	pmu   sync.RWMutex
	peers map[string]*peer

	// artifact holds the serving WMDL bytes (for FetchModel); version
	// is the stamp applied to locally-parsed records when no lifecycle
	// manager is attached. provider, when set, overrides artifact as
	// the FetchModel source — the registry-backed path, where the
	// authoritative bytes live on disk and move with the serving
	// pointer rather than with an in-memory copy.
	artifact atomic.Pointer[[]byte]
	provider atomic.Pointer[func() ([]byte, error)]
	version  atomic.Pointer[string]

	ready atomic.Bool
}

// NewNode builds a cluster node over a serving layer. mgr may be nil
// (no lifecycle management; ApplyModel then rebinds ps directly). The
// node adds itself to the ring and is ready immediately — use
// JoinFetchModel to gate readiness on fetching a model from a peer.
func NewNode(ps *serve.Server, mgr *lifecycle.Manager, opts Options) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	o := opts.withDefaults()
	n := &Node{
		opts:  o,
		id:    o.ID,
		ring:  NewRing(o.Ring),
		ps:    ps,
		mgr:   mgr,
		log:   o.Log,
		met:   newNodeMetrics(o.Metrics),
		peers: make(map[string]*peer),
	}
	empty := ""
	n.version.Store(&empty)
	n.ring.Add(n.id)
	n.ready.Store(true)
	reg := o.Metrics
	reg.GaugeFunc("cluster.ring.nodes", func() float64 { return float64(n.ring.Len()) })
	reg.GaugeFunc("cluster.ring.ownership.self", func() float64 {
		return n.ring.Ownership()[n.id]
	})
	return n, nil
}

// Ring returns the node's ring (shared routing state; mutate only via
// AddPeer).
func (n *Node) Ring() *Ring { return n.ring }

// SetModelArtifact installs the WMDL bytes this node serves to joining
// peers via FetchModel, without swapping anything locally — the boot
// path for a node started from an on-disk model. Without a lifecycle
// manager, the artifact's identity (the stamp that model's parses
// carry) becomes the node's model version.
func (n *Node) SetModelArtifact(data []byte) {
	n.artifact.Store(&data)
	if info, err := store.VerifyModelBytes(data); err == nil && n.mgr == nil {
		version := info.ID()
		n.version.Store(&version)
	}
}

// SetModelProvider routes FetchModel through fn instead of the static
// artifact bytes: each joining peer gets whatever fn returns at fetch
// time. A registry-backed daemon passes a closure that reads the
// family's current serving artifact, so peers always join on the model
// the registry says is serving — even if this node has not re-resolved
// since the last promote. A nil fn restores the static-artifact path.
func (n *Node) SetModelProvider(fn func() ([]byte, error)) {
	if fn == nil {
		n.provider.Store(nil)
		return
	}
	n.provider.Store(&fn)
}

// AddPeer registers a member and rebalances the ring. Replacing the
// client of an existing peer closes the old one.
func (n *Node) AddPeer(id string, client ShardClient) {
	if id == "" || id == n.id {
		return
	}
	n.pmu.Lock()
	if old, ok := n.peers[id]; ok && old.client != client {
		old.client.Close()
	}
	n.peers[id] = &peer{id: id, client: client}
	n.pmu.Unlock()
	if n.ring.Add(id) {
		n.met.rebalances.Inc()
		n.log.Info("peer joined", "peer", id, "members", n.ring.Len())
	}
}

func (n *Node) peer(id string) *peer {
	n.pmu.RLock()
	p := n.peers[id]
	n.pmu.RUnlock()
	return p
}

// ParseDomain serves one request cluster-aware: the ring names the
// domain's owner; if that is this node (or the owner is unreachable)
// the local serving stack answers, otherwise the request forwards to
// the owner through the same serve cache and coalescer, degrading to a
// local cold parse when the owner is down, slow, or overloaded. The
// name matches rdap.ParseBackend.
func (n *Node) ParseDomain(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	owner := n.ring.LookupBounded(domain)
	if owner == "" || owner == n.id {
		n.met.localOwned.Inc()
		n.ring.Acquire(n.id)
		defer n.ring.Release(n.id)
		return n.localParse(ctx, text)
	}
	p := n.peer(owner)
	if p == nil {
		// Membership raced (owner left between lookup and here); serve
		// locally rather than failing.
		n.met.localOwned.Inc()
		return n.localParse(ctx, text)
	}
	return n.forward(ctx, p, domain, text)
}

// localParse runs text through the local serving stack (cache →
// coalescing → worker pool).
func (n *Node) localParse(ctx context.Context, text string) (*core.ParsedRecord, error) {
	return n.ps.Parse(ctx, text)
}

// forward resolves a non-owned request through the node's one serve
// cache: a hit or an in-flight twin answers without the wire; a miss
// asks the owner, and when the owner cannot answer, a local parse
// fills the same entry. The owner's answer is cached only when it
// carries the model version this node serves, or no model at all (an
// L0 template answer): mid-rollout, an owner that has not swapped yet
// answers from the old model, and that answer must not outlive this
// node's own swap.
func (n *Node) forward(ctx context.Context, p *peer, domain, text string) (*core.ParsedRecord, error) {
	return n.ps.ParseRemote(ctx, text, func(ctx context.Context) (*core.ParsedRecord, bool, error) {
		rec, err := n.forwardOnce(ctx, p, domain, text)
		if err != nil {
			return nil, false, err
		}
		return rec, rec.Tier == core.TierTemplate || rec.ModelVersion == n.modelVersion(), nil
	}, func(src serve.Source) {
		switch src {
		case serve.FromCache:
			n.met.remoteHits.Inc()
		case serve.FromTwin:
			n.met.coalesced.Inc()
		case serve.FromLocal:
			n.met.degraded.Inc()
		}
	})
}

// forwardOnce performs one forward attempt with per-peer timeout and
// backoff. A failure charged to the peer backs it off; the caller's own
// cancellation or deadline is not the peer's fault and charges nothing.
func (n *Node) forwardOnce(ctx context.Context, p *peer, domain, text string) (*core.ParsedRecord, error) {
	if p.down() {
		return nil, ErrPeerDown
	}
	n.met.forwards.Inc()
	n.ring.Acquire(p.id)
	start := time.Now()
	fctx, cancel := context.WithTimeout(ctx, n.opts.ForwardTimeout)
	rec, ferr := p.client.Parse(fctx, domain, text)
	cancel()
	n.ring.Release(p.id)
	n.met.forwardTime.ObserveSince(start)
	if ferr == nil {
		p.reset()
		return rec, nil
	}
	var ov *OverloadedError
	switch {
	case ctx.Err() != nil:
		// Our caller gave up or ran out of time: no backoff.
	case errors.As(ferr, &ov):
		// The owner shed us and said when to come back; honor its
		// (already jittered) hint.
		n.met.overloaded.Inc()
		p.markDown(ov.After)
	default:
		n.met.forwardErrs.Inc()
		fails := p.failures.Add(1)
		p.markDown(backoff(n.opts.BackoffBase, n.opts.BackoffMax, fails))
		n.log.Warn("forward failed", "peer", p.id, "domain", domain, "err", ferr)
	}
	return nil, ferr
}

// backoff computes the jittered exponential failure backoff.
func backoff(base, max time.Duration, failures uint32) time.Duration {
	d := base
	for i := uint32(1); i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return jitter(d)
}

// jitter spreads d to 50-150% so a fleet's retries decorrelate.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// --- Backend (the receiving side of the shard protocol) ---

// HandleParse serves a parse on behalf of a peer. Overload maps to an
// OverloadedError carrying a jittered Retry-After hint.
func (n *Node) HandleParse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	if !n.ready.Load() {
		return nil, ErrNotReady
	}
	n.met.handled.Inc()
	n.ring.Acquire(n.id)
	rec, err := n.localParse(ctx, text)
	n.ring.Release(n.id)
	if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrClosed) {
		return nil, &OverloadedError{After: jitter(n.opts.RetryAfterBase)}
	}
	return rec, err
}

// ModelArtifact returns the serving WMDL bytes for a joining peer:
// from the provider when one is set, else the static artifact.
func (n *Node) ModelArtifact() ([]byte, error) {
	if fn := n.provider.Load(); fn != nil {
		data, err := (*fn)()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNoModel, err)
		}
		if len(data) == 0 {
			return nil, ErrNoModel
		}
		n.met.fetches.Inc()
		return data, nil
	}
	data := n.artifact.Load()
	if data == nil || len(*data) == 0 {
		return nil, ErrNoModel
	}
	n.met.fetches.Inc()
	return *data, nil
}

// ApplyModel verifies artifact (magic, format version, CRC32C, feature
// dimensions) and swaps it live: through the lifecycle manager when one
// is attached (cache generation bumps atomically with the parse
// function), directly onto the serve layer otherwise. Either way the
// serve cache generation bumps, orphaning forwarded answers along with
// local ones. The artifact already serving (the same identity) is not
// swapped again, so a rollout from a node that has just swapped leaves
// that node's cache and snapshot alone. Verification failure leaves the
// old model serving.
func (n *Node) ApplyModel(artifact []byte) (string, error) {
	p, info, err := store.ReadModel(bytes.NewReader(artifact))
	if err != nil {
		return "", err
	}
	version := info.ID()
	if version != n.modelVersion() {
		if n.mgr != nil {
			n.mgr.Swap(p, info, "")
		} else {
			// Publish the version before the generation bump, so no
			// request admitted under the new generation can cache a
			// forwarded answer as matching the old version.
			n.version.Store(&version)
			n.ps.SetParseFunc(func(text string) *core.ParsedRecord {
				rec := p.Parse(text)
				rec.ModelVersion = version
				return rec
			})
		}
		n.met.applies.Inc()
		n.log.Info("model applied", "version", version, "artifact", info.String())
	}
	n.artifact.Store(&artifact)
	n.ready.Store(true)
	return version, nil
}

// Status implements Backend.
func (n *Node) Status() PeerStatus {
	return PeerStatus{
		ID:           n.id,
		Addr:         n.opts.Addr,
		ModelVersion: n.modelVersion(),
		Generation:   n.ps.Generation(),
		Ready:        n.ready.Load(),
		Members:      n.ring.Members(),
	}
}

func (n *Node) modelVersion() string {
	if n.mgr != nil {
		return n.mgr.Current().Version
	}
	return *n.version.Load()
}

// --- Join and rollout ---

// JoinFetchModel fetches the serving WMDL from the given peer, verifies
// it, and swaps it in before the node admits traffic — the join path.
// Until it succeeds the node answers peers with ErrNotReady.
func (n *Node) JoinFetchModel(ctx context.Context, from ShardClient) (string, error) {
	n.ready.Store(false)
	data, err := from.FetchModel(ctx)
	if err != nil {
		return "", fmt.Errorf("cluster: join fetch: %w", err)
	}
	version, err := n.ApplyModel(data) // verifies CRC before swapping; sets ready
	if err != nil {
		return "", fmt.Errorf("cluster: join verify: %w", err)
	}
	n.log.Info("joined with fetched model", "version", version, "bytes", len(data))
	return version, nil
}

// RolloutReport describes one coordinated model rollout.
type RolloutReport struct {
	// Version is the version string the artifact produced locally.
	Version string `json:"version"`
	// Applied lists members that verified and swapped, in ring order.
	Applied []string `json:"applied"`
	// Failed maps members that did not swap to the error.
	Failed map[string]string `json:"failed,omitempty"`
}

// Rollout coordinates a cluster-wide hot swap: the artifact is
// validated locally first, then applied member by member in ring order
// with a jittered stagger between members. Each member's ApplyModel
// bumps that member's cache generation at its own staggered instant, so
// the fleet never invalidates all caches at once — the thundering-herd
// control. Members that fail keep their old model (and report in
// Failed); traffic continues throughout, every response attributable to
// exactly one model version.
func (n *Node) Rollout(ctx context.Context, artifact []byte, stagger time.Duration) (RolloutReport, error) {
	rep := RolloutReport{Failed: map[string]string{}}
	if _, err := store.VerifyModelBytes(artifact); err != nil {
		return rep, fmt.Errorf("cluster: rollout: %w", err)
	}
	n.met.rollouts.Inc()
	members := n.ring.Members()
	sort.Strings(members) // Members is sorted already; keep the contract explicit
	for i, id := range members {
		if i > 0 && stagger > 0 {
			select {
			case <-time.After(jitter(stagger)):
			case <-ctx.Done():
				return rep, ctx.Err()
			}
		}
		var version string
		var err error
		if id == n.id {
			version, err = n.ApplyModel(artifact)
		} else if p := n.peer(id); p != nil {
			actx, cancel := context.WithTimeout(ctx, n.opts.ApplyTimeout)
			version, err = p.client.ApplyModel(actx, artifact)
			cancel()
		} else {
			err = fmt.Errorf("no client for member")
		}
		if err != nil {
			rep.Failed[id] = err.Error()
			n.log.Warn("rollout member failed", "member", id, "err", err)
			continue
		}
		rep.Applied = append(rep.Applied, id)
		if rep.Version == "" {
			rep.Version = version
		}
	}
	if len(rep.Failed) == 0 {
		rep.Failed = nil
	}
	n.log.Info("rollout complete", "version", rep.Version,
		"applied", len(rep.Applied), "failed", len(rep.Failed))
	return rep, nil
}

// --- Cluster status (the /admin/cluster view) ---

// ClusterInfo aggregates the node's own status with a live poll of
// every peer.
type ClusterInfo struct {
	Self      PeerStatus         `json:"self"`
	Ownership map[string]float64 `json:"ownership"`
	Peers     []PeerInfo         `json:"peers,omitempty"`
}

// PeerInfo is one polled peer: its status, or the error that kept it
// from answering.
type PeerInfo struct {
	ID     string     `json:"id"`
	Status PeerStatus `json:"status,omitempty"`
	Err    string     `json:"error,omitempty"`
	Down   bool       `json:"down,omitempty"`
}

// ClusterStatus polls every peer (bounded by ctx) and returns the
// aggregate view.
func (n *Node) ClusterStatus(ctx context.Context) ClusterInfo {
	info := ClusterInfo{Self: n.Status(), Ownership: n.ring.Ownership()}
	n.pmu.RLock()
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	n.pmu.RUnlock()
	sort.Strings(ids)
	for _, id := range ids {
		p := n.peer(id)
		if p == nil {
			continue
		}
		pi := PeerInfo{ID: id, Down: p.down()}
		st, err := p.client.Status(ctx)
		if err != nil {
			pi.Err = err.Error()
		} else {
			pi.Status = st
		}
		info.Peers = append(info.Peers, pi)
	}
	return info
}

// Close closes every peer client. The serve.Server and lifecycle
// manager are owned by the caller.
func (n *Node) Close() error {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	for _, p := range n.peers {
		p.client.Close()
	}
	n.peers = map[string]*peer{}
	return nil
}
