// Command whoisd runs the simulated com WHOIS ecosystem on real TCP
// sockets: a thin registry plus one rate-limited RFC 3912 server per
// registrar. It writes a directory file mapping server names to bound
// addresses (the simulation's stand-in for DNS) and a zone file listing
// the registered domains, then serves until interrupted.
//
// With -parse (default on) every server also answers "--parse <domain>"
// queries: the record is run through the shared parse-serving layer
// (internal/serve: cache + coalescing + bounded workers) and returned as
// a labeled field summary instead of raw text. The parser comes from
// -model, or is trained on a small synthetic corpus at startup.
//
// Usage:
//
//	whoisd [-n 5000] [-seed 1] [-limit 25] [-window 500ms] [-penalty 1s]
//	       [-dir whois_servers.txt] [-zone zone.txt] [-fail 0.075]
//	       [-parse] [-model parser.model] [-parse-workers 0] [-parse-cache 4096]
//	       [-model-registry DIR [-model-family default]]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/whoisd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whoisd: ")
	var df daemon.Flags
	n := flag.Int("n", 5000, "number of domains to serve")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	limit := flag.Int("limit", 25, "per-source queries per window at each registrar (0 = unlimited)")
	window := flag.Duration("window", 500*time.Millisecond, "rate-limit window")
	penalty := flag.Duration("penalty", time.Second, "rate-limit penalty period")
	dirFile := flag.String("dir", "whois_servers.txt", "directory file to write (name addr per line)")
	zoneFile := flag.String("zone", "zone.txt", "zone file to write (one domain per line)")
	failFrac := flag.Float64("fail", 0.075, "fraction of domains whose thick record is withheld")
	parseMode := flag.Bool("parse", true, "answer '--parse <domain>' queries with the parsed-field summary")
	df.RegisterModel(flag.CommandLine, "", "trained parser model for -parse (empty = train a small one at startup)")
	df.RegisterServing(flag.CommandLine)
	metricsAddr := flag.String("metrics-addr", "", "serve the metrics registry as JSON on this address (empty disables)")
	flag.Parse()

	// One registry across the cluster: per-server query counters, the
	// parse-serving layer, and the CRF decoders all report here. It is
	// exported live on -metrics-addr and dumped at shutdown either way.
	reg := obs.NewRegistry()

	log.Printf("generating %d domains (seed %d)", *n, *seed)
	domains := synth.Generate(synth.Config{N: *n, Seed: *seed, BrandFraction: 0.02})
	eco := registry.BuildEcosystem(domains, *failFrac)

	// Every registrar server answers '--parse' through one shared serving
	// layer, so a reload swaps the model into all of them at once.
	mode := daemon.NoModel
	if *parseMode {
		mode = daemon.ServeModel
	}
	stk, err := daemon.Build(daemon.Config{Flags: df, Mode: mode, Seed: *seed, Metrics: reg, DumpStats: true})
	if err != nil {
		log.Fatal(err)
	}
	defer stk.Close()
	if *parseMode {
		log.Printf("parse mode on: try '--parse <domain>' against any server")
	}

	cluster, err := whoisd.StartCluster(eco, whoisd.ClusterConfig{
		RegistryLimit:  (*limit) * 16,
		RegistrarLimit: *limit,
		Window:         *window,
		Penalty:        *penalty,
		Parse:          stk.Server,
		Log:            obs.NewLogger("whoisd", os.Stderr),
		Metrics:        reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	if err := writeDirectory(*dirFile, cluster); err != nil {
		log.Fatal(err)
	}
	if err := writeZone(*zoneFile, domains); err != nil {
		log.Fatal(err)
	}

	addr, _ := cluster.Directory.Resolve(registry.RegistryServerName)
	log.Printf("registry %s listening on %s", registry.RegistryServerName, addr)
	log.Printf("%d registrar servers up; directory in %s, zone in %s",
		len(eco.Servers), *dirFile, *zoneFile)
	log.Printf("try: printf 'example.com\\r\\n' | nc %s", addr)

	if *metricsAddr != "" {
		maddr, err := stk.Serve(*metricsAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics at http://%s/", maddr)
	}

	// SIGHUP re-resolves the registry's serving pointer (registry mode)
	// or re-reads -model; a bad artifact is rejected with the old model
	// still live.
	stk.ReloadOnSIGHUP()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
}

func writeDirectory(path string, cluster *whoisd.Cluster) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write directory: %w", err)
	}
	defer f.Close()
	names := cluster.Directory.Names()
	sort.Strings(names)
	for _, name := range names {
		addr, err := cluster.Directory.Resolve(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "%s %s\n", name, addr)
	}
	return f.Close()
}

func writeZone(path string, domains []*synth.Domain) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write zone: %w", err)
	}
	defer f.Close()
	for _, d := range domains {
		fmt.Fprintln(f, d.Reg.Domain)
	}
	return f.Close()
}
