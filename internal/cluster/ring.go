// Package cluster turns N independent rdapd/whoisd processes into one
// consistent serving fleet. The paper parses the full .com zone — 102M
// records (§6) — by fanning work across machines; this package supplies
// the coordination that fan-out needs once the machines also *serve*:
//
//   - a consistent-hash ring (virtual nodes, bounded-load variant) that
//     assigns every domain to exactly one owning shard, so each record
//     is hot in exactly one cache instead of N;
//   - a transport-agnostic shard protocol (ShardClient/Backend) with an
//     in-process implementation for tests and a length-prefixed,
//     CRC32C-framed TCP implementation for production, the same framing
//     discipline as internal/store's record log;
//   - peer-aware cache lookup: a non-owning node forwards to the owner
//     before cold-parsing, with singleflight on the forward path, a
//     generation-keyed remote-result LRU, and per-peer timeout/backoff
//     so one slow peer degrades to local parsing instead of stalling
//     the ring;
//   - model-artifact distribution: a joining node fetches the serving
//     WMDL from a peer and verifies its CRC32C before admitting
//     traffic;
//   - cluster-coordinated hot swaps: a promotion rolls across the ring
//     with staggered per-node cache invalidation, so a fleet-wide model
//     change never produces a thundering herd of simultaneous misses.
//
// See DESIGN.md §5g for the ring layout, the wire format, and the
// rollout policy.
package cluster

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// RingOptions tunes the consistent-hash ring. The zero value picks sane
// defaults.
type RingOptions struct {
	// Replicas is the number of virtual nodes per member; more vnodes
	// smooth the ownership distribution at the cost of a larger (still
	// binary-searched) table. <= 0 means 128.
	Replicas int
	// LoadFactor is the bounded-load factor c: LookupBounded refuses to
	// route a key to a member carrying more than ceil(c * (total+1) /
	// members) in-flight requests and walks to the next distinct member
	// instead (Mirrokni et al.'s "consistent hashing with bounded
	// loads"). <= 1 disables bounding; 0 means 1.25.
	LoadFactor float64
}

func (o RingOptions) withDefaults() RingOptions {
	if o.Replicas <= 0 {
		o.Replicas = 128
	}
	if o.LoadFactor == 0 {
		o.LoadFactor = 1.25
	}
	return o
}

// ringState is one immutable generation of the ring: sorted vnode
// hashes, the member owning each vnode, and the sorted member list.
// Membership changes build a fresh state and publish it with one atomic
// store, so Lookup never takes a lock.
type ringState struct {
	hashes  []uint64 // sorted vnode positions
	owner   []int32  // hashes[i] belongs to ids[owner[i]]
	ids     []string // sorted member ids
	version uint64   // bumped per rebuild
}

// Ring is a consistent-hash ring with virtual nodes and an optional
// bounded-load lookup. Lookups are lock-free reads of an atomic state
// pointer; membership changes (Add/Remove) serialize on a mutex and
// rebuild.
type Ring struct {
	opts  RingOptions
	state atomic.Pointer[ringState]

	mu    sync.Mutex // membership changes
	loads sync.Map   // member id -> *atomic.Int64 in-flight count
}

// NewRing builds an empty ring.
func NewRing(opts RingOptions) *Ring {
	r := &Ring{opts: opts.withDefaults()}
	r.state.Store(&ringState{})
	return r
}

// FNV-1a 64 with ASCII case folding: domains are case-insensitive, so
// EXAMPLE.COM and example.com must land on the same shard.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashDomain(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// vnodeHash positions one virtual node. The replica index is mixed in
// through the string form ("id#17") so vnode positions are stable across
// processes — every member computes the same ring from the same ids.
func vnodeHash(id string, replica int) uint64 {
	return hashDomain(id + "#" + strconv.Itoa(replica))
}

// Add inserts a member and rebuilds the ring. Adding an existing member
// is a no-op (false).
func (r *Ring) Add(id string) bool {
	if id == "" {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.state.Load()
	for _, have := range cur.ids {
		if have == id {
			return false
		}
	}
	ids := make([]string, 0, len(cur.ids)+1)
	ids = append(ids, cur.ids...)
	ids = append(ids, id)
	r.loads.LoadOrStore(id, new(atomic.Int64))
	r.rebuild(cur, ids)
	return true
}

// rebuild publishes a new state for ids. Callers hold r.mu.
func (r *Ring) rebuild(cur *ringState, ids []string) {
	sort.Strings(ids)
	n := len(ids) * r.opts.Replicas
	st := &ringState{
		hashes:  make([]uint64, n),
		owner:   make([]int32, n),
		ids:     ids,
		version: cur.version + 1,
	}
	type vnode struct {
		h     uint64
		owner int32
	}
	vns := make([]vnode, 0, n)
	for oi, id := range ids {
		for rep := 0; rep < r.opts.Replicas; rep++ {
			vns = append(vns, vnode{vnodeHash(id, rep), int32(oi)})
		}
	}
	sort.Slice(vns, func(i, j int) bool { return vns[i].h < vns[j].h })
	for i, v := range vns {
		st.hashes[i] = v.h
		st.owner[i] = v.owner
	}
	r.state.Store(st)
}

// Members returns the sorted member ids.
func (r *Ring) Members() []string {
	st := r.state.Load()
	out := make([]string, len(st.ids))
	copy(out, st.ids)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.state.Load().ids) }

// search finds the vnode slot owning hash h (first slot with
// hashes[i] >= h, wrapping to 0).
func (r *Ring) search(st *ringState, h uint64) int {
	// Hand-rolled binary search: sort.Search's closure costs an
	// indirect call per probe, measurable at the <200ns/op budget.
	lo, hi := 0, len(st.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(st.hashes) {
		return 0
	}
	return lo
}

// LookupBounded is Lookup with the bounded-load rule: if the primary
// owner is already carrying more than ceil(c*(total+1)/members)
// in-flight requests (as tracked by Acquire/Release), the key walks
// clockwise to the next distinct member under the cap. With every
// member at or over the cap it falls back to the primary owner, so the
// answer is always a current member.
func (r *Ring) LookupBounded(domain string) string {
	st := r.state.Load()
	if len(st.hashes) == 0 {
		return ""
	}
	start := r.search(st, hashDomain(domain))
	primary := st.ids[st.owner[start]]
	if r.opts.LoadFactor <= 1 || len(st.ids) == 1 {
		return primary
	}
	limit := r.loadCap(st)
	if r.load(primary) < limit {
		return primary
	}
	seen := int32(st.owner[start])
	for i := 1; i < len(st.hashes); i++ {
		o := st.owner[(start+i)%len(st.hashes)]
		if o == seen {
			continue
		}
		id := st.ids[o]
		if r.load(id) < limit {
			return id
		}
		seen = o // skip immediate repeats; rare collisions just recheck
	}
	return primary
}

// loadCap computes the bounded-load ceiling for the current state.
func (r *Ring) loadCap(st *ringState) int64 {
	var total int64
	for _, id := range st.ids {
		total += r.load(id)
	}
	return int64(math.Ceil(r.opts.LoadFactor * float64(total+1) / float64(len(st.ids))))
}

func (r *Ring) loadCounter(id string) *atomic.Int64 {
	if v, ok := r.loads.Load(id); ok {
		return v.(*atomic.Int64)
	}
	v, _ := r.loads.LoadOrStore(id, new(atomic.Int64))
	return v.(*atomic.Int64)
}

func (r *Ring) load(id string) int64 { return r.loadCounter(id).Load() }

// Acquire records one in-flight request against a member; pair with
// Release. The counters feed LookupBounded only — forgetting them makes
// bounding a no-op, never a correctness problem.
func (r *Ring) Acquire(id string) { r.loadCounter(id).Add(1) }

// Release ends an Acquire.
func (r *Ring) Release(id string) { r.loadCounter(id).Add(-1) }

// Ownership returns each member's fraction of the hash space — the
// per-shard ownership figure exported as a metric and shown by
// /admin/cluster. Fractions sum to 1 on a non-empty ring.
func (r *Ring) Ownership() map[string]float64 {
	st := r.state.Load()
	out := make(map[string]float64, len(st.ids))
	if len(st.hashes) == 0 {
		return out
	}
	// The arc owned by vnode i is (hashes[i-1], hashes[i]]; the first
	// vnode also owns the wraparound arc.
	const width = float64(1<<63) * 2 // 2^64
	for i := range st.hashes {
		var arc uint64
		if i == 0 {
			arc = st.hashes[0] + (^st.hashes[len(st.hashes)-1] + 1)
		} else {
			arc = st.hashes[i] - st.hashes[i-1]
		}
		out[st.ids[st.owner[i]]] += float64(arc) / width
	}
	return out
}
