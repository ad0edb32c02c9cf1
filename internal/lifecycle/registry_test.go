package lifecycle

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/store"
)

// seedRegistry publishes p as <family>/1.0.0 and walks it to serving,
// returning the registry and the artifact's identity.
func seedRegistry(t *testing.T, p *core.Parser, family string) (*modelreg.Registry, store.ModelInfo) {
	t.Helper()
	reg, err := modelreg.Open(t.TempDir(), modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed.wmdl")
	info, err := store.SaveModel(p, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(modelreg.PublishRequest{Family: family, ArtifactPath: path}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate(family, "1.0.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(family, "1.0.0"); err != nil {
			t.Fatal(err)
		}
	}
	return reg, info
}

func TestNewFromRegistryStampsCanonicalVersion(t *testing.T) {
	recs, weak, strong := fixtures(t)
	reg, info := seedRegistry(t, weak, "default")

	m, err := NewFromRegistry(reg, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Current()
	if snap.Family != "default" || snap.SemVer != "1.0.0" {
		t.Fatalf("snapshot identity = %q/%q", snap.Family, snap.SemVer)
	}
	want := info.ID()
	if snap.Version != want || snap.Info != info {
		t.Fatalf("version = %q, want %q", snap.Version, want)
	}
	rec := m.Parse(recs[0].Text)
	if rec.ModelVersion != want {
		t.Fatalf("stamped %q, want %q", rec.ModelVersion, want)
	}

	// Nothing new serving: reload is a no-op.
	if _, changed, err := m.ReloadServing(); err != nil || changed {
		t.Fatalf("idle reload: changed=%v err=%v", changed, err)
	}

	// Publish + promote a new version out-of-band (another process, the
	// CLI); reload picks it up.
	path := filepath.Join(t.TempDir(), "v2.wmdl")
	info2, err := store.SaveModel(strong, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(modelreg.PublishRequest{Family: "default", ArtifactPath: path, Parent: "1.0.0"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate("default", "1.1.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote("default", "1.1.0"); err != nil {
			t.Fatal(err)
		}
	}
	snap2, changed, err := m.ReloadServing()
	if err != nil || !changed {
		t.Fatalf("reload after promote: changed=%v err=%v", changed, err)
	}
	if snap2.SemVer != "1.1.0" || snap2.Version != info2.ID() {
		t.Fatalf("reloaded %q (%s), want %q (1.1.0)", snap2.Version, snap2.SemVer, info2.ID())
	}
	if m.Parse(recs[0].Text).ModelVersion != snap2.Version {
		t.Fatal("parse not stamped with reloaded version")
	}

	// Managers without a registry refuse ReloadServing.
	plain := New(weak, Options{})
	if _, _, err := plain.ReloadServing(); err != ErrNoRegistry {
		t.Fatalf("plain ReloadServing err = %v", err)
	}
}
