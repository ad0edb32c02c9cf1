package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing(RingOptions{})
	if got := r.Lookup("example.com"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want empty", got)
	}
	if got := r.LookupBounded("example.com"); got != "" {
		t.Fatalf("empty ring LookupBounded = %q, want empty", got)
	}
	if r.Add("") {
		t.Fatal("Add(\"\") succeeded")
	}
	if !r.Add("a") || r.Add("a") {
		t.Fatal("Add should succeed once and refuse the duplicate")
	}
	if r.Remove("missing") {
		t.Fatal("Remove of absent member succeeded")
	}
	if !r.Remove("a") {
		t.Fatal("Remove of present member failed")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after removing the only member", r.Len())
	}
}

func TestRingVersionTracksMembership(t *testing.T) {
	r := NewRing(RingOptions{})
	v0 := r.Version()
	r.Add("a")
	if r.Version() == v0 {
		t.Fatal("Version did not change on Add")
	}
	v1 := r.Version()
	r.Add("a") // no-op
	if r.Version() != v1 {
		t.Fatal("Version changed on no-op Add")
	}
	r.Remove("a")
	if r.Version() == v1 {
		t.Fatal("Version did not change on Remove")
	}
}

func TestRingLookupDeterministicAcrossInstances(t *testing.T) {
	build := func() *Ring {
		r := NewRing(RingOptions{})
		// Insertion order must not matter: states are rebuilt from the
		// sorted id list.
		for _, id := range []string{"node-b", "node-a", "node-c"} {
			r.Add(id)
		}
		return r
	}
	r1, r2 := build(), build()
	for i := 0; i < 1000; i++ {
		d := fmt.Sprintf("domain%d.com", i)
		if r1.Lookup(d) != r2.Lookup(d) {
			t.Fatalf("rings disagree on %s: %s vs %s", d, r1.Lookup(d), r2.Lookup(d))
		}
	}
}

func TestRingLookupCaseInsensitive(t *testing.T) {
	r := NewRing(RingOptions{})
	r.Add("node-a")
	r.Add("node-b")
	r.Add("node-c")
	for i := 0; i < 200; i++ {
		lower := fmt.Sprintf("domain%d.com", i)
		upper := fmt.Sprintf("DOMAIN%d.COM", i)
		if r.Lookup(lower) != r.Lookup(upper) {
			t.Fatalf("case-sensitive routing for %s", lower)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	r := NewRing(RingOptions{})
	members := []string{"node-a", "node-b", "node-c"}
	for _, id := range members {
		r.Add(id)
	}
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Lookup(fmt.Sprintf("domain%d.com", i))]++
	}
	for _, id := range members {
		frac := float64(counts[id]) / n
		// With 128 vnodes/member the 3-way split should be far from
		// degenerate; 15% is a loose floor that still catches broken
		// hashing or search.
		if frac < 0.15 || frac > 0.60 {
			t.Fatalf("member %s owns %.1f%% of keys, outside [15%%, 60%%]", id, frac*100)
		}
	}
}

func TestRingRemoveOnlyRemapsRemovedKeys(t *testing.T) {
	r := NewRing(RingOptions{})
	for _, id := range []string{"node-a", "node-b", "node-c", "node-d"} {
		r.Add(id)
	}
	before := map[string]string{}
	for i := 0; i < 2000; i++ {
		d := fmt.Sprintf("domain%d.com", i)
		before[d] = r.Lookup(d)
	}
	r.Remove("node-c")
	for d, owner := range before {
		got := r.Lookup(d)
		if owner == "node-c" {
			if got == "node-c" {
				t.Fatalf("%s still routed to the removed member", d)
			}
			continue
		}
		if got != owner {
			t.Fatalf("%s moved %s -> %s though its owner stayed", d, owner, got)
		}
	}
}

func TestRingAddRemapsOnlyToNewMember(t *testing.T) {
	r := NewRing(RingOptions{})
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		r.Add(id)
	}
	before := map[string]string{}
	for i := 0; i < 2000; i++ {
		d := fmt.Sprintf("domain%d.com", i)
		before[d] = r.Lookup(d)
	}
	r.Add("node-d")
	moved := 0
	for d, owner := range before {
		got := r.Lookup(d)
		if got != owner {
			if got != "node-d" {
				t.Fatalf("%s moved %s -> %s, not to the new member", d, owner, got)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new member")
	}
	if frac := float64(moved) / float64(len(before)); frac > 0.5 {
		t.Fatalf("%.1f%% of keys moved on one join; consistent hashing should move ~1/N", frac*100)
	}
}

func TestRingBoundedLoadReroutes(t *testing.T) {
	r := NewRing(RingOptions{LoadFactor: 1.25})
	r.Add("node-a")
	r.Add("node-b")
	d := "domain0.com"
	primary := r.Lookup(d)
	other := "node-a"
	if primary == "node-a" {
		other = "node-b"
	}
	if got := r.LookupBounded(d); got != primary {
		t.Fatalf("unloaded ring rerouted %s: %s != %s", d, got, primary)
	}
	// Pile in-flight load onto the primary: cap = ceil(1.25*(10+1)/2) = 7,
	// so a primary at 10 must overflow to the other member.
	for i := 0; i < 10; i++ {
		r.Acquire(primary)
	}
	if got := r.LookupBounded(d); got != other {
		t.Fatalf("overloaded primary not skipped: got %s, want %s", got, other)
	}
	for i := 0; i < 10; i++ {
		r.Release(primary)
	}
	if got := r.LookupBounded(d); got != primary {
		t.Fatalf("drained primary not restored: got %s, want %s", got, primary)
	}
}

func TestRingBoundedLoadDisabled(t *testing.T) {
	r := NewRing(RingOptions{LoadFactor: -1})
	r.Add("node-a")
	r.Add("node-b")
	d := "domain0.com"
	primary := r.Lookup(d)
	for i := 0; i < 100; i++ {
		r.Acquire(primary)
	}
	if got := r.LookupBounded(d); got != primary {
		t.Fatalf("bounding disabled but %s rerouted to %s", d, got)
	}
}

func TestRingOwnershipSumsToOne(t *testing.T) {
	r := NewRing(RingOptions{})
	if got := r.Ownership(); len(got) != 0 {
		t.Fatalf("empty ring Ownership = %v", got)
	}
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		r.Add(id)
	}
	own := r.Ownership()
	var sum float64
	for id, frac := range own {
		if frac <= 0 {
			t.Fatalf("member %s owns %f of the ring", id, frac)
		}
		sum += frac
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ownership fractions sum to %f, want 1", sum)
	}
}

// TestRingConcurrentChurn exercises lookups against live membership
// changes; the -race build is the assertion.
func TestRingConcurrentChurn(t *testing.T) {
	r := NewRing(RingOptions{})
	r.Add("stable-a")
	r.Add("stable-b")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := fmt.Sprintf("domain%d.com", i%500)
				if owner := r.LookupBounded(d); owner == "" {
					t.Error("lookup returned no owner on a non-empty ring")
					return
				}
				r.Acquire("stable-a")
				r.Release("stable-a")
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("churn-%d", i%3)
		r.Add(id)
		r.Ownership()
		r.Remove(id)
	}
	close(stop)
	wg.Wait()
}

// Remove deletes a member and rebuilds the ring. Removing an absent
// member is a no-op (false).
func (r *Ring) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.state.Load()
	ids := make([]string, 0, len(cur.ids))
	found := false
	for _, have := range cur.ids {
		if have == id {
			found = true
			continue
		}
		ids = append(ids, have)
	}
	if !found {
		return false
	}
	r.loads.Delete(id)
	r.rebuild(cur, ids)
	return true
}

// Lookup returns the member owning domain: the owner of the first vnode
// clockwise of the domain's hash. Empty string on an empty ring.
// Lock-free and allocation-free — one hash, one binary search.
func (r *Ring) Lookup(domain string) string {
	st := r.state.Load()
	if len(st.hashes) == 0 {
		return ""
	}
	return st.ids[st.owner[r.search(st, hashDomain(domain))]]
}

// Version returns the rebuild counter — it changes exactly when
// membership does, so callers can detect rebalances cheaply.
func (r *Ring) Version() uint64 { return r.state.Load().version }
