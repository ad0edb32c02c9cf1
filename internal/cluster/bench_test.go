package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro/internal/serve"
)

// BenchmarkRingLookup is the routing hot path: one hash plus one binary
// search over an immutable state — the acceptance bar is <200ns/op.
func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(RingOptions{})
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		r.Add(id)
	}
	domains := make([]string, 1024)
	for i := range domains {
		domains[i] = fmt.Sprintf("domain%d.com", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Lookup(domains[i&1023]) == "" {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkRingLookupBounded adds the bounded-load check (load reads
// across members) on top of the plain lookup.
func BenchmarkRingLookupBounded(b *testing.B) {
	r := NewRing(RingOptions{LoadFactor: 1.25})
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		r.Add(id)
	}
	domains := make([]string, 1024)
	for i := range domains {
		domains[i] = fmt.Sprintf("domain%d.com", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.LookupBounded(domains[i&1023]) == "" {
			b.Fatal("no owner")
		}
	}
}

// BenchmarkShardForward measures the full forward path overhead with
// the wire taken out (in-process transport, the forwarding node's
// serve cache disabled): key hash, singleflight bookkeeping, the
// peer's serving stack (cache hit), and the response hand-back.
func BenchmarkShardForward(b *testing.B) {
	a := testNodeServe(b, "node-a", echoParse("node-a"), serve.Options{Workers: 2, CacheCapacity: -1}, Options{})
	o := testNode(b, "node-b", echoParse("node-b"), Options{})
	link(a, o)
	d := domainOwnedBy(b, a.Ring(), "node-b")
	text := "whois " + d
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ParseDomain(ctx, d, text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardForwardRemoteHit is the steady-state path for repeated
// non-owned domains: the forward resolves in the forwarding node's
// serve cache without touching the peer.
func BenchmarkShardForwardRemoteHit(b *testing.B) {
	a := testNode(b, "node-a", echoParse("node-a"), Options{})
	o := testNode(b, "node-b", echoParse("node-b"), Options{})
	link(a, o)
	d := domainOwnedBy(b, a.Ring(), "node-b")
	text := "whois " + d
	ctx := context.Background()
	if _, err := a.ParseDomain(ctx, d, text); err != nil { // prime
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ParseDomain(ctx, d, text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardForwardTCP is BenchmarkShardForward over a loopback TCP
// connection: adds framing, CRC, and kernel round trips.
func BenchmarkShardForwardTCP(b *testing.B) {
	a := testNodeServe(b, "node-a", echoParse("node-a"), serve.Options{Workers: 2, CacheCapacity: -1}, Options{})
	o := testNode(b, "node-b", echoParse("node-b"), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := ServeTCP(ln, o, nil)
	defer srv.Close()
	a.AddPeer("node-b", DialTCP(srv.Addr()))
	d := domainOwnedBy(b, a.Ring(), "node-b")
	text := "whois " + d
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ParseDomain(ctx, d, text); err != nil {
			b.Fatal(err)
		}
	}
}
