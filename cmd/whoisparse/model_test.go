package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/store"
	"repro/internal/synth"
)

// TestModelCLIRoundTrip drives the operator workflow end to end through
// runModel: publish → list → verify → promote ×2 → publish a successor →
// promote it → rollback → gc.
func TestModelCLIRoundTrip(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 60, Seed: 17})
	p, _, err := core.Train(recs[:40], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	art := filepath.Join(t.TempDir(), "m.wmdl")
	if _, err := store.SaveModel(p, art); err != nil {
		t.Fatal(err)
	}
	regDir := t.TempDir()
	run := func(sub string, args ...string) (string, error) {
		var sb strings.Builder
		err := runModel(&sb, sub, append([]string{"-registry", regDir}, args...))
		return sb.String(), err
	}
	mustRun := func(sub string, args ...string) string {
		t.Helper()
		out, err := run(sub, args...)
		if err != nil {
			t.Fatalf("model %s: %v\n%s", sub, err, out)
		}
		return out
	}

	out := mustRun("publish", "-artifact", art, "-corpus", "/data/c.labeled", "-candidate")
	if !strings.Contains(out, "published default/1.0.0") || !strings.Contains(out, "as candidate") {
		t.Fatalf("publish output:\n%s", out)
	}
	out = mustRun("list")
	for _, want := range []string{"default:", "1.0.0", "candidate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}

	out = mustRun("inspect", "-version", "1.0.0")
	for _, want := range []string{`"corpus_path": "/data/c.labeled"`, "whoisparse model publish", "stage: candidate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}

	out = mustRun("verify")
	if !strings.Contains(out, "all 1 versions verified") {
		t.Fatalf("verify output:\n%s", out)
	}

	mustRun("promote", "-version", "1.0.0") // -> shadow
	out = mustRun("promote", "-version", "1.0.0")
	if !strings.Contains(out, "to serving") {
		t.Fatalf("promote output:\n%s", out)
	}
	// An unstaged version cannot jump the pipeline.
	mustRun("publish", "-artifact", art, "-version", "1.1.0", "-parent", "1.0.0")
	if _, err := run("promote", "-version", "1.1.0"); err == nil {
		t.Fatal("promote of unstaged version succeeded")
	}
	// Rolling back to a never-served version fails loudly.
	if _, err := run("rollback", "-version", "1.1.0"); err == nil {
		t.Fatal("rollback to never-served version succeeded")
	}

	out = mustRun("diff", "1.0.0", "1.1.0")
	if !strings.Contains(out, "1.0.0 -> 1.1.0") || !strings.Contains(out, "byte-identical") {
		t.Fatalf("diff output:\n%s", out)
	}

	// Walk the successor through properly, then roll back to 1.0.0.
	reg, err := modelreg.Open(regDir, modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate("default", "1.1.0"); err != nil {
		t.Fatal(err)
	}
	mustRun("promote", "-version", "1.1.0")
	mustRun("promote", "-version", "1.1.0")
	out = mustRun("rollback", "-version", "1.0.0")
	if !strings.Contains(out, "rolled back") {
		t.Fatalf("rollback output:\n%s", out)
	}

	out = mustRun("gc", "-keep", "0")
	if !strings.Contains(out, "removed default/1.1.0") {
		t.Fatalf("gc output:\n%s", out)
	}

	// Missing -registry is an error, as is an unknown subcommand.
	var sb strings.Builder
	if err := runModel(&sb, "list", nil); err == nil {
		t.Fatal("runModel without -registry succeeded")
	}
	if err := runModel(&sb, "frobnicate", []string{"-registry", regDir}); err == nil {
		t.Fatal("unknown subcommand succeeded")
	}

	res, err := reg.ResolveServing("default")
	if err != nil || res.Version != "1.0.0" {
		t.Fatalf("final serving = %+v, %v", res, err)
	}
}
