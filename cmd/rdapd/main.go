// Command rdapd serves the synthetic registration corpus over RDAP — the
// structured-data protocol the paper's background section (§2.2) expects
// to eventually replace free-text WHOIS. Two views of every domain:
//
//   - /domain/{name}: registry ground truth as an RDAP domain object;
//   - /parsed/{name}: the statistical parser's reading of the domain's
//     raw WHOIS text, served through the shared parse-serving layer
//     (internal/serve: cache + singleflight coalescing + bounded worker
//     pool with load shedding) and shaped as RDAP-flavored JSON.
//
// Comparing the two is the "WHOIS Right?" consistency experiment in
// miniature: structured truth vs. learned parse, same schema. With
// -debug-addr the daemon runs that comparison on demand: GET
// /admin/consistency self-audits the corpus through internal/consistency
// — every domain's WHOIS text goes through the live parser, the result
// is compared field by field against the RDAP truth, and the reply is
// the aggregate agreement summary (per-field and per-registrar
// disagreement breakdowns).
//
//	rdapd -n 2000 -listen 127.0.0.1:8083 -debug-addr 127.0.0.1:8084 &
//	curl -s http://127.0.0.1:8083/domain/<name> | jq .
//	curl -s http://127.0.0.1:8083/parsed/<name> | jq .
//	curl -s http://127.0.0.1:8084/admin/consistency?limit=500 | jq .
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/lifecycle"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rdap"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
	"repro/internal/tiered"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rdapd: ")
	var df daemon.Flags
	n := flag.Int("n", 2000, "number of domains to serve")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	parseMode := flag.Bool("parse", true, "serve /parsed/{name} via the statistical parser")
	df.RegisterModel(flag.CommandLine, "", "trained parser model for -parse (empty = train a small one at startup)")
	df.RegisterServing(flag.CommandLine)
	flag.IntVar(&df.Queue, "parse-queue", 0, "admission queue depth (0 = 8x workers); overflow answers 503")
	storeDir := flag.String("store", "", "open this record store for the daemon's lifetime: warm-start the parse cache from its newest segment and serve predicated queries at /admin/query on -debug-addr")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (empty disables)")
	clusterListen := flag.String("cluster-listen", "",
		"serve the shard protocol on this address and route /parsed/ through the consistent-hash ring (empty disables clustering)")
	clusterID := flag.String("cluster-id", "",
		"stable ring identity of this node (default: the bound -cluster-listen address)")
	peersFlag := flag.String("peers", "",
		"comma-separated peer shards, each id=addr (or a bare addr, doubling as the id)")
	clusterJoin := flag.String("cluster-join", "",
		"fetch the serving model from the shard at this address (verified by CRC32C) before admitting traffic")
	flag.Parse()

	// One registry shared by every layer: the RDAP handler, the
	// parse-serving layer, and the CRF decoders below it all report here,
	// and --debug-addr exports the lot.
	reg := obs.NewRegistry()

	domains := synth.Generate(synth.Config{N: *n, Seed: *seed, BrandFraction: 0.02})
	srv := rdap.NewServer(domains)
	srv.Instrument(reg)

	// -store opens the record store once for the whole run: the warm
	// start streams from it at boot, and the query engine serves
	// /admin/query over it for as long as the daemon lives, deriving
	// sidecars in the background whenever a segment seals.
	var recStore *store.Store
	var qe *query.Engine
	if *storeDir != "" {
		var err error
		recStore, err = store.Open(*storeDir, store.Options{Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer recStore.Close()
		qe = query.New(recStore, query.Options{Metrics: reg})
		qe.AutoBuild()
	}

	// The parse stack: model source, lifecycle, tiered routing and the
	// serving layer behind /parsed/. Closed before the store, so its
	// background sidecar build never outlives the segments it reads.
	mode := daemon.NoModel
	if *parseMode {
		mode = daemon.ServeModel
	}
	stk, err := daemon.Build(daemon.Config{Flags: df, Mode: mode, Seed: *seed, Metrics: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer stk.Close()
	if qe != nil {
		stk.Go(func() {
			if built, err := qe.BuildAll(); err != nil {
				log.Printf("query: sidecar build: %v (queries fall back where needed)", err)
			} else if built > 0 {
				log.Printf("query: built sidecars for %d segments", built)
			}
		})
	}

	var node *cluster.Node
	if *parseMode {
		if recStore != nil {
			n, err := stk.WarmStart(recStore)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("warm start: preloaded %d parsed records from %s", n, *storeDir)
		}
		if *clusterListen != "" {
			// Cluster mode: every /parsed/ request routes through the
			// consistent-hash ring — this node serves its own slice of the
			// domain space and forwards the rest to the owning shard.
			ln, err := net.Listen("tcp", *clusterListen)
			if err != nil {
				log.Fatal(err)
			}
			id := *clusterID
			if id == "" {
				id = ln.Addr().String()
			}
			node, err = cluster.NewNode(stk.Server, stk.Manager, cluster.Options{
				ID:      id,
				Addr:    ln.Addr().String(),
				Metrics: reg,
				Log:     obs.NewLogger("cluster", os.Stderr),
			})
			if err != nil {
				log.Fatal(err)
			}
			defer node.Close()
			for _, spec := range strings.Split(*peersFlag, ",") {
				spec = strings.TrimSpace(spec)
				if spec == "" {
					continue
				}
				pid, paddr, ok := strings.Cut(spec, "=")
				if !ok {
					pid, paddr = spec, spec
				}
				node.AddPeer(pid, cluster.DialTCP(paddr))
			}
			if stk.Registry != nil {
				// Joining peers always fetch whatever the registry says is
				// serving right now — a promote between joins changes what
				// the next peer receives, with no daemon restart.
				fam := df.Family
				node.SetModelProvider(func() ([]byte, error) {
					res, err := stk.Registry.ResolveServing(fam)
					if err != nil {
						return nil, err
					}
					return os.ReadFile(res.Path)
				})
			} else if df.Model != "" {
				// Serve our on-disk artifact to joining peers.
				data, err := os.ReadFile(df.Model)
				if err != nil {
					log.Fatal(err)
				}
				node.SetModelArtifact(data)
			}
			if *clusterJoin != "" {
				// Join path: pull the fleet's serving model and verify its
				// CRC before this node answers anyone.
				jc := cluster.DialTCP(*clusterJoin)
				jctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				version, err := node.JoinFetchModel(jctx, jc)
				cancel()
				jc.Close()
				if err != nil {
					log.Fatal(err)
				}
				log.Printf("cluster: joined via %s, serving model %s", *clusterJoin, version)
			}
			shardSrv := cluster.ServeTCP(ln, node, obs.NewLogger("cluster", os.Stderr))
			defer shardSrv.Close()
			log.Printf("cluster: shard %s on %s, %d ring members", id, ln.Addr(), node.Ring().Len())
			srv.EnableParsedBackend(node, domains)
		} else {
			srv.EnableParsed(stk.Server, domains)
		}
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	if *debugAddr != "" {
		mux := obs.DebugMux(reg)
		var notes []string // one log line per admin surface, formatted with the bound address
		handle := func(path string, h http.HandlerFunc, note string) {
			mux.HandleFunc(path, h)
			if note != "" {
				notes = append(notes, note)
			}
		}
		if stk.Manager != nil {
			handle("/admin/reload", adminReload(stk), "")
			handle("/admin/model", adminModel(stk.Manager), "model admin at http://%s/admin/model (POST /admin/reload to hot-swap)")
		}
		if stk.Registry != nil {
			handle("/admin/models", adminModels(stk.Registry), "model registry at http://%s/admin/models (POST /admin/model/promote|rollback?version=...)")
			handle("/admin/model/promote", adminStageMove(stk.Registry, stk.Manager, node, df.Family, false), "")
			handle("/admin/model/rollback", adminStageMove(stk.Registry, stk.Manager, node, df.Family, true), "")
		}
		if stk.Router != nil {
			handle("/admin/tiered", adminTiered(stk.Router), "tier status at http://%s/admin/tiered")
		}
		if node != nil {
			handle("/admin/cluster", adminCluster(node), "cluster status at http://%s/admin/cluster")
		}
		if qe != nil {
			handle("/admin/query", adminQuery(qe), "store queries at http://%s/admin/query?registrar=...&country=...&year=...&since=...")
		}
		if stk.Parse != nil {
			handle("/admin/consistency", adminConsistency(domains, stk.Parse), "cross-protocol self-audit at http://%s/admin/consistency?limit=...")
		}
		daddr, err := stk.Serve(*debugAddr, mux)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug endpoints at http://%s/debug/vars and /debug/pprof/", daddr)
		for _, note := range notes {
			log.Printf(note, daddr)
		}
	}
	log.Printf("serving %d domains at http://%s/domain/{name}", *n, addr)
	if *parseMode {
		log.Printf("parsed view at http://%s/parsed/{name}", addr)
	}
	log.Printf("example: curl -s http://%s/domain/%s", addr, domains[0].Reg.Domain)

	// SIGHUP = "re-read the model source and swap it live": with
	// -model-registry that re-resolves the serving pointer (a promote on
	// another process becomes visible), otherwise it re-reads -model.
	stk.ReloadOnSIGHUP()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
}

// adminReload is the HTTP twin of SIGHUP on POST, for orchestrators that
// would rather curl than signal: the stack re-reads its model source and
// swaps it live (a registry stack only when the serving pointer moved).
func adminReload(stk *daemon.Stack) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		snap, changed, err := stk.Reload()
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"version": snap.Version, "seq": snap.Seq,
			"artifact": snap.Info.String(), "changed": changed,
		})
	}
}

// adminModels lists the registry: every family's stages and versions,
// with provenance highlights — the fleet-wide "what could we serve"
// view next to /admin/model's "what are we serving".
func adminModels(reg *modelreg.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		listings, err := reg.List()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(listings)
	}
}

// adminStageMove advances (?version=V one stage: candidate → shadow →
// serving) or rolls back the family's serving pointer on POST, then
// makes the daemon converge on the registry's new serving version:
// ReloadServing swaps this process, and — when clustered — a Rollout
// pushes the artifact to every peer so the ring moves together.
func adminStageMove(reg *modelreg.Registry, mgr *lifecycle.Manager, node *cluster.Node, defaultFamily string, rollback bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		family := r.URL.Query().Get("family")
		if family == "" {
			family = defaultFamily
		}
		version := r.URL.Query().Get("version")
		if version == "" {
			http.Error(w, "version query parameter required", http.StatusBadRequest)
			return
		}
		var stage modelreg.Stage
		var err error
		if rollback {
			stage, err = modelreg.StageServing, reg.Rollback(family, version)
		} else {
			stage, err = reg.Promote(family, version)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		resp := map[string]any{"family": family, "version": version, "stage": stage.String()}
		if stage == modelreg.StageServing && mgr != nil {
			snap, changed, rerr := mgr.ReloadServing()
			if rerr != nil {
				http.Error(w, rerr.Error(), http.StatusUnprocessableEntity)
				return
			}
			resp["serving"], resp["swapped"] = snap.Version, changed
			if node != nil && changed {
				if data, ferr := os.ReadFile(snap.Path); ferr == nil {
					ctx, cancel := context.WithTimeout(r.Context(), time.Minute)
					report, roerr := node.Rollout(ctx, data, 0)
					cancel()
					if roerr != nil {
						log.Printf("admin %s: cluster rollout: %v", stage, roerr)
					}
					resp["rollout"] = report
				}
			}
		}
		log.Printf("admin stage move: %s/%s -> %s", family, version, stage)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	}
}

// adminModel reports which model is live and what the drift sentinel
// thinks of it.
func adminModel(mgr *lifecycle.Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap := mgr.Current()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"version":  snap.Version,
			"seq":      snap.Seq,
			"artifact": snap.Info.String(),
			"path":     snap.Path,
			"family":   snap.Family,
			"semver":   snap.SemVer,
			"state":    mgr.State().String(),
			"flagged":  mgr.Flagged(),
		})
	}
}

// adminCluster reports the node's view of the ring: its own status,
// per-member ownership fractions, and a live poll of every peer.
func adminCluster(node *cluster.Node) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		defer cancel()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(node.ClusterStatus(ctx))
	}
}

// adminTiered reports the L0 router's template and counter state: how
// many templates compiled, which are demoted, and the per-tier serve
// counts (also exported as tiered.* in /debug/vars).
func adminTiered(router *tiered.Router) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(router.Status())
	}
}

// adminQuery answers a predicate over the opened record store through
// the query engine: ?where= takes a full predicate expression, and/or
// ?registrar= ?country= ?year= ?since= add single dimensions. The JSON
// reply carries the match count, the top registrars/countries and the
// per-year histogram of the matching rows, and the planner's execution
// stats (how many segments were pruned, answered from their sidecars,
// scanned in full, rebuilt). The counts are folded from the facts
// sidecars, so a match costs no record decode.
func adminQuery(e *query.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		parts := make([]string, 0, 5)
		if s := q.Get("where"); s != "" {
			parts = append(parts, s)
		}
		for _, k := range []string{"registrar", "country", "year", "since"} {
			if v := q.Get(k); v != "" {
				parts = append(parts, k+"="+v)
			}
		}
		p, err := query.ParsePred(strings.Join(parts, ","))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		registrars := make(map[string]int)
		countries := make(map[string]int)
		years := make(map[int]int)
		stats, err := e.Fold(p, func(f survey.Facts) {
			if f.Registrar != "" {
				registrars[f.Registrar]++
			}
			if f.Country != "" {
				countries[f.Country]++
			}
			years[f.CreatedYear]++
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"predicate":      p.String(),
			"matched":        stats.Matched,
			"stats":          stats,
			"top_registrars": topCounts(registrars, 10),
			"top_countries":  topCounts(countries, 10),
			"years":          yearCounts(years),
		})
	}
}

// adminConsistency self-audits the served corpus through
// internal/consistency: each domain's raw WHOIS text goes through the
// live parse function and the result is compared field by field against
// the RDAP ground truth the daemon serves at /domain/{name}. The reply
// is the auditor's aggregate summary — agreement-taxonomy counts,
// per-field conflict totals, and the per-registrar disagreement ranking.
// ?limit=N audits only the first N domains (the corpus order is the
// deterministic generation order). Like the RDAP surface itself the
// endpoint is read-only: anything but GET/HEAD is answered 405 with an
// Allow header.
func adminConsistency(domains []*synth.Domain, parse func(text string) *core.ParsedRecord) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMethodNotAllowed)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error": r.Method + " is not supported; use GET or HEAD",
			})
			return
		}
		limit := len(domains)
		if s := r.URL.Query().Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
				return
			}
			if v < limit {
				limit = v
			}
		}
		a := consistency.NewAuditor()
		for _, d := range domains[:limit] {
			pr := parse(d.Render().Text)
			if pr == nil {
				a.Skip()
				continue
			}
			wv := consistency.FromWHOIS(pr)
			if wv.Domain == "" {
				wv.Domain = strings.ToLower(d.Reg.Domain)
			}
			rv := consistency.FromRDAP(rdap.FromRegistration(&d.Reg))
			a.Observe(consistency.Compare(wv, rv))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(a.Summary())
	}
}

// keyCount is one row of a ranked JSON breakdown.
type keyCount struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

// topCounts ranks a breakdown by count (ties by key) and keeps the top k.
func topCounts(m map[string]int, k int) []keyCount {
	out := make([]keyCount, 0, len(m))
	for key, n := range m {
		out = append(out, keyCount{key, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// yearCount is one bar of the per-year JSON histogram; year 0 counts the
// records whose creation year did not parse.
type yearCount struct {
	Year int `json:"year"`
	N    int `json:"n"`
}

func yearCounts(m map[int]int) []yearCount {
	out := make([]yearCount, 0, len(m))
	for y, n := range m {
		out = append(out, yearCount{y, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}
