package daemon

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/labels"
	"repro/internal/modelreg"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tiered"
)

const testSeed = 5

// fixture is one trained model saved as a WMDL artifact and published
// as 1.0.0, serving, in a fresh registry, plus a second model for
// reload tests.
type fixture struct {
	path, regDir string
	info, infoB  store.ModelInfo
	b            *core.Parser
	texts        []string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	recs := synth.GenerateLabeled(synth.Config{N: 120, Seed: 23})
	a := train(t, recs[:60])
	b := train(t, recs)
	dir := t.TempDir()
	f := &fixture{path: filepath.Join(dir, "a.wmdl"), regDir: filepath.Join(dir, "reg"), b: b}
	var err error
	if f.info, err = store.SaveModel(a, f.path); err != nil {
		t.Fatal(err)
	}
	if f.infoB, err = store.SaveModel(b, filepath.Join(dir, "b.wmdl")); err != nil {
		t.Fatal(err)
	}
	reg, err := modelreg.Open(f.regDir, modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fam := modelreg.DefaultFamily
	if _, err := reg.Publish(modelreg.PublishRequest{Family: fam, Version: "1.0.0", ArtifactPath: f.path}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate(fam, "1.0.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(fam, "1.0.0"); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range synth.Generate(synth.Config{N: 40, Seed: 11, BrandFraction: 0.02}) {
		f.texts = append(f.texts, d.Render().Text)
	}
	return f
}

func train(t *testing.T, recs []*labels.LabeledRecord) *core.Parser {
	t.Helper()
	p, _, err := experiments.TrainParser(recs, experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// encode is a record's stored bytes with the identity stamp cleared: the
// part of a parse that must not depend on how the stack was assembled.
func encode(rec *core.ParsedRecord) []byte {
	cp := *rec
	cp.ModelVersion = ""
	return store.EncodeRecord(nil, &store.Record{Domain: "d", Parsed: &cp})
}

// settleGoroutines waits for the goroutine count to fall back to want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStackModes walks the mode matrix: every model source, with and
// without the tiered router. Each stack must parse exactly like the
// parser (or router) it wraps, stamp the documented identity, reload
// only where it should, and leave no goroutine behind after Close.
func TestStackModes(t *testing.T) {
	f := newFixture(t)
	// os/signal starts its process-wide watcher goroutine on first use;
	// start it now so it is not counted against the stack.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGUSR2)
	signal.Stop(warm)

	ref, _, err := store.LoadModel(f.path)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name  string
		flags Flags
		id    string // documented identity; "" = unstamped
		// reload: 0 = not reloadable, 1 = swaps on a changed file,
		// 2 = no swap while the registry pointer is unchanged.
		reload int
	}{
		{"train-small", Flags{}, "", 0},
		{"wmdl-file", Flags{Model: f.path}, f.info.ID(), 0},
		{"wmdl-lifecycle", Flags{Model: f.path, Lifecycle: true}, f.info.ID(), 1},
		{"registry", Flags{Registry: f.regDir, Family: modelreg.DefaultFamily}, f.info.ID(), 2},
	}
	for _, m := range modes {
		for _, tiered := range []bool{false, true} {
			name := m.name
			if tiered {
				name += "/tiered"
			}
			t.Run(name, func(t *testing.T) {
				flags := m.flags
				flags.Tiered = tiered
				flags.Workers = 2
				if flags.Lifecycle {
					// Reload rewrites the artifact; give each run its own.
					flags.Model = filepath.Join(t.TempDir(), "live.wmdl")
					data, err := os.ReadFile(f.path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(flags.Model, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				before := runtime.NumGoroutine()
				stk, err := Build(Config{Flags: flags, Mode: ServeModel, Seed: testSeed})
				if err != nil {
					t.Fatal(err)
				}
				checkStack(t, f, stk, ref, m.id, m.reload, flags.Model)
				stk.Close()
				stk.Close() // idempotent
				settleGoroutines(t, before)
			})
		}
	}
}

func checkStack(t *testing.T, f *fixture, stk *Stack, ref *core.Parser, id string, reload int, model string) {
	t.Helper()
	if id == "" {
		ref = stk.parser // trained in memory: the reference is the boot model itself
	}
	want := ref.Parse
	if stk.Router != nil {
		want = tiered.NewFromRecords(smallCorpus(testSeed), core.DefaultConfig().Tokenize, tiered.Options{}).Bind(ref.Parse)
	}
	if got := stk.ID(); got != id {
		t.Fatalf("ID() = %q, want %q", got, id)
	}
	ctx := context.Background()
	for i, text := range f.texts {
		got, err := stk.Server.ParseWait(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		exp := want(text)
		if !bytes.Equal(encode(got), encode(exp)) {
			t.Fatalf("text %d: stack parse differs from the direct parse:\n got %+v\nwant %+v", i, got, exp)
		}
		stamp := id
		if got.Tier == core.TierTemplate {
			stamp = "" // L0 records carry no model identity
		}
		if got.ModelVersion != stamp {
			t.Fatalf("text %d (tier %q): ModelVersion = %q, want %q", i, got.Tier, got.ModelVersion, stamp)
		}
	}

	stk.ReloadOnSIGHUP()
	switch reload {
	case 0:
		if _, _, err := stk.Reload(); !errors.Is(err, ErrNotReloadable) {
			t.Fatalf("Reload without a manager: err = %v", err)
		}
	case 1:
		if _, err := store.SaveModel(f.b, model); err != nil {
			t.Fatal(err)
		}
		snap, changed, err := stk.Reload()
		if err != nil || !changed {
			t.Fatalf("Reload of a changed file: changed=%v err=%v", changed, err)
		}
		if snap.Version != f.infoB.ID() || stk.ID() != f.infoB.ID() {
			t.Fatalf("after reload serving %q (ID %q), want %q", snap.Version, stk.ID(), f.infoB.ID())
		}
		if got := stk.Parse(f.texts[0]); got.Tier != core.TierTemplate && got.ModelVersion != f.infoB.ID() {
			t.Fatalf("post-reload parse stamped %q", got.ModelVersion)
		}
		// SIGHUP lands on the same Reload.
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for stk.Manager.Current().Seq == snap.Seq {
			if time.Now().After(deadline) {
				t.Fatal("SIGHUP did not reload")
			}
			time.Sleep(10 * time.Millisecond)
		}
	case 2:
		before := stk.Manager.Current()
		snap, changed, err := stk.Reload()
		if err != nil || changed || snap != before {
			t.Fatalf("Reload of an unchanged pointer: changed=%v err=%v swapped=%v", changed, err, snap != before)
		}
	}

	// Exercise every goroutine owner Close must join.
	stk.Go(func() {})
	addr, err := stk.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr.String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics listener answered %d", resp.StatusCode)
	}
}

// TestWarmStartMatchesCrawlStamp is the crawl → serve handoff: a store
// written through a Sink by one stack (whoiscrawl -store S with -model X
// or -model-registry R) must warm-start a stack serving the same
// artifact however it loads it (rdapd -store S with -model X, with or
// without -lifecycle, or -model-registry R). Every load path derives the
// identity from the artifact, so every crawled parse preloads; a record
// stamped by another model does not.
func TestWarmStartMatchesCrawlStamp(t *testing.T) {
	f := newFixture(t)
	file := Flags{Model: f.path}
	registry := Flags{Registry: f.regDir, Family: modelreg.DefaultFamily}
	lifecycle := Flags{Model: f.path, Lifecycle: true}
	for _, tc := range []struct {
		name         string
		crawl, serve Flags
	}{
		{"file-to-lifecycle", file, lifecycle},
		{"registry-to-file", registry, file},
		{"file-to-registry", file, registry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			crawl, err := Build(Config{Flags: tc.crawl, Mode: ModelIfSet})
			if err != nil {
				t.Fatal(err)
			}
			defer crawl.Close()
			if crawl.Server != nil {
				t.Fatal("ModelIfSet built a serving layer")
			}
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sink := store.NewSink(st, store.SinkOptions{Parse: crawl.Parse, ModelVersion: crawl.ID()})
			for i, text := range f.texts {
				if err := sink.Put("d"+string(rune('a'+i%26)), "", text); err != nil {
					t.Fatal(err)
				}
			}
			foreign := f.b.Parse(f.texts[0] + "\n")
			foreign.ModelVersion = "wmdl-00000000"
			if err := st.Append(&store.Record{Domain: "x", Text: f.texts[0] + "\n", Parsed: foreign}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			serving, err := Build(Config{Flags: tc.serve, Mode: ServeModel, Seed: testSeed})
			if err != nil {
				t.Fatal(err)
			}
			defer serving.Close()
			st, err = store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			n, err := serving.WarmStart(st)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(f.texts) {
				t.Fatalf("warm start preloaded %d records, want %d (the crawl's stamp %q must match the serving identity %q)",
					n, len(f.texts), crawl.ID(), serving.ID())
			}
		})
	}
}

func TestBuildModes(t *testing.T) {
	if _, err := Build(Config{Flags: Flags{Lifecycle: true}, Mode: ServeModel}); err == nil {
		t.Fatal("-lifecycle without -model built")
	}
	if _, err := Build(Config{Flags: Flags{Model: filepath.Join(t.TempDir(), "missing.wmdl")}, Mode: ModelIfSet}); err == nil {
		t.Fatal("missing -model built")
	}
	for _, mode := range []Mode{NoModel, ModelIfSet} {
		stk, err := Build(Config{Mode: mode, DumpStats: true})
		if err != nil {
			t.Fatal(err)
		}
		if stk.Parse != nil || stk.Server != nil || stk.ID() != "" {
			t.Fatalf("mode %d without a model source built a model", mode)
		}
		stk.Close()
	}
}
