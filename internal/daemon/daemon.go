// Package daemon is the one place a binary turns flags into a parse
// stack. The paper's parser is retrained and redeployed as registrar
// templates drift (§5.1, §5.3), so "which model is serving, and where it
// came from" is decided here for rdapd, whoisd, whoissurvey and
// whoiscrawl alike: a model from the registry's serving pointer, a WMDL
// file, or a small parser trained at startup; a lifecycle.Manager for
// -lifecycle or -model-registry; a tiered.Router for -tiered; and a
// serve.Server bound to all of them.
//
// The model's identity comes from the artifact, never from the process
// or the load path: "wmdl-<crc32c>", read with the weights, whether the
// artifact came from the registry's serving pointer or a WMDL file; none
// for a parser trained in memory. It is stamped into every CRF-served
// record; template-served records carry none.
//
// The Stack also owns the process plumbing around the model — one Reload
// for SIGHUP and the admin endpoint, the metrics/debug listener,
// background jobs, the final stats dump — and Close joins every
// goroutine it started.
package daemon

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/labels"
	"repro/internal/lifecycle"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tiered"
)

// ErrNotReloadable reports a Reload on a stack without a lifecycle
// manager (no -lifecycle, no -model-registry).
var ErrNotReloadable = errors.New("daemon: model is not reloadable (needs -lifecycle or -model-registry)")

// Flags are the parse-stack flag values. RegisterModel and RegisterServing
// declare them; binaries that lack a flag leave its field at the zero
// value or set it directly.
type Flags struct {
	Model     string // -model: WMDL artifact path
	Registry  string // -model-registry: registry directory
	Family    string // -model-family: registry family
	Lifecycle bool   // -lifecycle: manage -model through a lifecycle.Manager
	Tiered    bool   // -tiered: L0 template fast path with CRF fallback
	Workers   int    // -parse-workers: serve worker pool size (0 = GOMAXPROCS)
	Queue     int    // serve admission queue depth (0 = 8x workers)
	Cache     int    // -parse-cache: serve cache capacity (negative disables)
}

// RegisterModel declares -model (defaulting to model), -model-registry
// and -model-family on fs.
func (f *Flags) RegisterModel(fs *flag.FlagSet, model, usage string) {
	fs.StringVar(&f.Model, "model", model, usage)
	fs.StringVar(&f.Registry, "model-registry", "",
		"use the model this registry directory marks 'serving' (overrides -model, implies -lifecycle; SIGHUP or POST /admin/reload re-resolve the pointer)")
	fs.StringVar(&f.Family, "model-family", modelreg.DefaultFamily,
		"registry model family to serve (with -model-registry)")
}

// RegisterServing declares the serving daemons' -lifecycle, -tiered,
// -parse-workers and -parse-cache on fs.
func (f *Flags) RegisterServing(fs *flag.FlagSet) {
	fs.BoolVar(&f.Lifecycle, "lifecycle", false,
		"manage -model through internal/lifecycle: hot-reload on SIGHUP or POST /admin/reload (requires a WMDL -model)")
	fs.BoolVar(&f.Tiered, "tiered", false,
		"parse through the L0 compiled-template fast path with CRF fallback (tiered.* metrics)")
	fs.IntVar(&f.Workers, "parse-workers", 0, "parse worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&f.Cache, "parse-cache", 4096, "parsed-record cache capacity (negative disables)")
}

// Mode says how much of the stack a binary needs.
type Mode int

const (
	// NoModel builds only the process plumbing (metrics, stats dump).
	NoModel Mode = iota
	// ModelIfSet loads a model only when -model or -model-registry names
	// one, and builds no serving layer (whoiscrawl's parse-before-persist).
	ModelIfSet
	// ServeModel puts a serve.Server in front of the model, training a
	// small parser when no model source is given.
	ServeModel
)

// Config is everything Build needs.
type Config struct {
	Flags
	Mode Mode
	// Seed seeds the labeled corpus the fallback parser trains on and
	// the tiered templates compile from.
	Seed int64
	// Metrics is the registry every layer reports into; nil means a
	// private one.
	Metrics *obs.Registry
	// DumpStats writes the final Metrics snapshot to stderr on Close.
	DumpStats bool
}

// Stack is an assembled parse stack. The exported fields are nil when
// the configuration does not call for them.
type Stack struct {
	Registry *modelreg.Registry // -model-registry
	Manager  *lifecycle.Manager // -model-registry or -lifecycle
	Router   *tiered.Router     // -tiered
	Server   *serve.Server      // ServeModel
	// Parse is the uncached parse a cache miss runs: identity-stamped,
	// tier-routed, and (under a manager) always the live model.
	Parse func(text string) *core.ParsedRecord

	cfg     Config
	parser  *core.Parser // the boot model of a stack without a manager
	id      string       // identity of a model without a manager
	hup     chan os.Signal
	servers []*http.Server
	wg      sync.WaitGroup
	once    sync.Once
}

// Build assembles the stack cfg describes.
func Build(cfg Config) (*Stack, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := &Stack{cfg: cfg}
	if cfg.Mode == NoModel || (cfg.Mode == ModelIfSet && cfg.Model == "" && cfg.Registry == "") {
		return s, nil
	}
	if cfg.Tiered {
		s.Router = tiered.NewFromRecords(smallCorpus(cfg.Seed), core.DefaultConfig().Tokenize,
			tiered.Options{Metrics: cfg.Metrics})
		log.Printf("tiered: %d registrar templates compiled (L0 fast path on)", s.Router.Status().Templates)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if cfg.Mode == ServeModel {
		s.Server = serve.NewFunc(s.Parse, serve.Options{
			Workers:       cfg.Workers,
			QueueDepth:    cfg.Queue,
			CacheCapacity: cfg.Cache,
			Metrics:       cfg.Metrics,
		})
		if s.Manager != nil {
			s.Manager.Attach(s.Server)
		}
	}
	return s, nil
}

// load resolves the model source: the registry's serving pointer, the
// -model file (under a manager with -lifecycle), or a small parser
// trained in memory.
func (s *Stack) load() error {
	c := s.cfg
	lopts := lifecycle.Options{Metrics: c.Metrics, Log: obs.NewLogger("lifecycle", os.Stderr), Tiered: s.Router}
	var err error
	switch {
	case c.Registry != "":
		s.Registry, err = modelreg.Open(c.Registry, modelreg.Options{
			Metrics: c.Metrics, Log: obs.NewLogger("modelreg", os.Stderr),
		})
		if err != nil {
			return err
		}
		if s.Manager, err = lifecycle.NewFromRegistry(s.Registry, c.Family, lopts); err != nil {
			return err
		}
	case c.Lifecycle:
		if c.Model == "" {
			return errors.New("-lifecycle requires -model (a WMDL artifact to reload from)")
		}
		if s.Manager, err = lifecycle.NewFromFile(c.Model, lopts); err != nil {
			return err
		}
	case c.Model != "":
		var info store.ModelInfo
		if s.parser, info, err = store.LoadModel(c.Model); err != nil {
			return err
		}
		s.id = info.ID()
		log.Printf("loaded parser %s from %s (%s)", s.id, c.Model, info)
	default:
		log.Printf("no -model given; training a small parser (use -model for a full one)")
		if s.parser, _, err = experiments.TrainParser(smallCorpus(c.Seed), experiments.Quick()); err != nil {
			return err
		}
	}
	if s.Manager != nil {
		snap := s.Manager.Current()
		log.Printf("lifecycle: serving model %s (%s)", snap.Version, snap.Info)
		s.Parse = s.Manager.Parse
		return nil
	}
	s.parser.Instrument(c.Metrics)
	s.Parse = s.parser.Parse
	if id := s.id; id != "" {
		parse := s.parser.Parse
		s.Parse = func(text string) *core.ParsedRecord {
			rec := parse(text)
			rec.ModelVersion = id
			return rec
		}
	}
	if s.Router != nil {
		s.Parse = s.Router.Bind(s.Parse)
	}
	return nil
}

// smallCorpus is the labeled corpus behind the fallback parser and the
// tiered templates, drawn from a seed distinct from the served
// ecosystem's.
func smallCorpus(seed int64) []*labels.LabeledRecord {
	return synth.GenerateLabeled(synth.Config{N: 200, Seed: seed + 7919})
}

// ID is the identity stamped on the serving model's parses: the
// artifact's "wmdl-<crc32c>" (under a manager, the live snapshot's
// version); empty for a parser trained in memory.
func (s *Stack) ID() string {
	if s.Manager != nil {
		return s.Manager.Current().Version
	}
	return s.id
}

// Reload re-reads the model source and swaps it live — SIGHUP and the
// admin reload endpoint both land here. A registry stack re-resolves the
// serving pointer and swaps only if it moved (changed reports which); a
// file stack re-reads -model. A bad artifact is rejected with the old
// model still serving.
func (s *Stack) Reload() (snap *lifecycle.Snapshot, changed bool, err error) {
	if s.Manager == nil {
		return nil, false, ErrNotReloadable
	}
	if s.Registry != nil {
		snap, changed, err = s.Manager.ReloadServing()
	} else {
		snap, err = s.Manager.ReloadFromFile(s.cfg.Model)
		changed = err == nil
	}
	switch {
	case err != nil:
		log.Printf("reload failed (still serving %s): %v", s.Manager.Current().Version, err)
	case changed:
		log.Printf("reload: now serving %s (%s)", snap.Version, snap.Info)
	default:
		log.Printf("reload: %s still serving (registry pointer unchanged)", snap.Version)
	}
	return snap, changed, err
}

// ReloadOnSIGHUP makes SIGHUP call Reload until Close, the classic
// daemon reload contract. A stack without a manager ignores it.
func (s *Stack) ReloadOnSIGHUP() {
	if s.Manager == nil || s.hup != nil {
		return
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	s.hup = hup
	s.Go(func() {
		for range hup {
			_, _, _ = s.Reload()
		}
	})
}

// WarmStart replays the store's newest segment (the records written
// closest to the previous shutdown) into the serving cache. Only records
// that carry both raw text and a parse, and — when the stack has a model
// identity — were stamped with exactly that identity, are preloaded:
// anything else would be misattributed to the serving model.
func (s *Stack) WarmStart(st *store.Store) (int, error) {
	want := s.ID()
	it := st.IterNewestSegment()
	defer it.Close()
	n := 0
	for it.Next() {
		rec := it.Record()
		if rec.Text == "" || rec.Parsed == nil {
			continue
		}
		if want != "" && rec.Parsed.ModelVersion != want {
			continue
		}
		s.Server.Preload(rec.Text, rec.Parsed)
		n++
	}
	return n, it.Err()
}

// Go runs fn on a goroutine Close joins.
func (s *Stack) Go(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// Serve serves h on addr until Close — the metrics/debug listener. A
// nil h serves the metrics registry as JSON.
func (s *Stack) Serve(addr string, h http.Handler) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if h == nil {
		h = s.cfg.Metrics
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.Go(func() { _ = srv.Serve(ln) })
	return ln.Addr(), nil
}

// Close stops SIGHUP handling and the listeners, joins every goroutine
// the stack started, drains the serving layer, and logs the final
// serving, tier and (with DumpStats) metrics accounting. Safe to call
// more than once.
func (s *Stack) Close() {
	s.once.Do(func() {
		if s.hup != nil {
			signal.Stop(s.hup)
			close(s.hup)
		}
		for _, srv := range s.servers {
			_ = srv.Close()
		}
		s.wg.Wait()
		if s.Server != nil {
			s.Server.Close()
			log.Printf("parse serving: %s", s.Server.Stats())
		}
		if s.Router != nil {
			st := s.Router.Status()
			log.Printf("tiered: %d templates (%d demoted), l0 hits %d, demoted serves %d, l1 fallbacks %d",
				st.Templates, len(st.Demoted), st.L0Hits, st.L0Demoted, st.L1Fallbacks)
		}
		if s.cfg.DumpStats {
			log.Printf("final stats:")
			if err := s.cfg.Metrics.WriteJSON(os.Stderr); err != nil {
				log.Printf("stats dump failed: %v", err)
			}
			fmt.Fprintln(os.Stderr)
		}
	})
}
