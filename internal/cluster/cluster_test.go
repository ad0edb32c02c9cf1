package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
)

// Shared fixtures, built once per test binary: two small trained
// parsers saved as distinct WMDL artifacts (model distribution and
// rollout tests need real, CRC-verifiable bytes; everything else runs
// on fake parse functions).
var (
	artOnce      sync.Once
	artA, artB   []byte
	artAP, artBP *core.Parser
	artErr       error
)

func artifacts(t testing.TB) (a, b []byte) {
	t.Helper()
	artOnce.Do(func() {
		recs := synth.GenerateLabeled(synth.Config{N: 120, Seed: 23})
		dir, err := os.MkdirTemp("", "cluster-wmdl")
		if err != nil {
			artErr = err
			return
		}
		defer os.RemoveAll(dir)
		save := func(nTrain int, name string) ([]byte, *core.Parser, error) {
			p, _, err := core.Train(recs[:nTrain], core.DefaultConfig())
			if err != nil {
				return nil, nil, err
			}
			path := filepath.Join(dir, name)
			if _, err := store.SaveModel(p, path); err != nil {
				return nil, nil, err
			}
			data, err := os.ReadFile(path)
			return data, p, err
		}
		if artA, artAP, artErr = save(30, "a.wmdl"); artErr != nil {
			return
		}
		artB, artBP, artErr = save(60, "b.wmdl")
	})
	if artErr != nil {
		t.Fatal(artErr)
	}
	return artA, artB
}

// parsers returns the trained parsers behind the two artifacts.
func parsers(t testing.TB) (*core.Parser, *core.Parser) {
	t.Helper()
	artifacts(t)
	return artAP, artBP
}

// testNode builds a node over a fake parse function. LoadFactor -1
// disables bounded-load rerouting so ownership assertions are
// deterministic.
func testNode(t testing.TB, id string, fn serve.ParseFunc, opts Options) *Node {
	t.Helper()
	return testNodeServe(t, id, fn, serve.Options{Workers: 2}, opts)
}

// testNodeServe is testNode with the node's serving-layer options.
func testNodeServe(t testing.TB, id string, fn serve.ParseFunc, sopts serve.Options, opts Options) *Node {
	t.Helper()
	ps := serve.NewFunc(fn, sopts)
	t.Cleanup(func() { ps.Close() })
	opts.ID = id
	if opts.Ring.LoadFactor == 0 {
		opts.Ring.LoadFactor = -1
	}
	n, err := NewNode(ps, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// link wires every node to every other node over the in-process
// transport.
func link(nodes ...*Node) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeer(b.ID(), &InprocClient{B: b})
			}
		}
	}
}

// echoParse fabricates a trivially recognizable record for text.
func echoParse(nodeID string) serve.ParseFunc {
	return func(text string) *core.ParsedRecord {
		return &core.ParsedRecord{DomainName: text, Registrar: nodeID}
	}
}

// domainOwnedBy finds a test domain whose ring owner is the wanted
// node.
func domainOwnedBy(t testing.TB, r *Ring, want string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		d := fmt.Sprintf("domain%d.com", i)
		if r.Lookup(d) == want {
			return d
		}
	}
	t.Fatalf("no domain hashed to %s in 10000 tries", want)
	return ""
}
