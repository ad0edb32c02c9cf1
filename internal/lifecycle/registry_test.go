package lifecycle

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/modelreg"
	"repro/internal/serve"
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

func TestRetrainPublishesAndPromotesThroughRegistry(t *testing.T) {
	recs, weak, _ := fixtures(t)
	reg, _ := seedRegistry(t, weak, "default")

	m, err := NewFromRegistry(reg, "default", Options{
		Holdout:    holdoutSet(t),
		CorpusPath: "/data/corpus.store",
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New(weak, serve.Options{Workers: 2})
	defer ps.Close()
	m.Attach(ps)

	res, err := m.Retrain(recs[:300])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("candidate rejected: %s", res.Reason)
	}
	if res.Manifest == nil || res.Manifest.Version != "1.1.0" {
		t.Fatalf("manifest = %+v", res.Manifest)
	}
	p := res.Manifest.Provenance
	if p.Trainer != "lifecycle.Retrain" || p.CorpusPath != "/data/corpus.store" ||
		p.TrainRecords != 300 || p.HoldoutRecords != len(holdoutSet(t)) {
		t.Fatalf("provenance = %+v", p)
	}
	if p.ShadowTokenAccuracy <= 0 || p.ShadowTokenAccuracy < p.LiveTokenAccuracy {
		t.Fatalf("shadow accuracy %v vs live %v", p.ShadowTokenAccuracy, p.LiveTokenAccuracy)
	}
	if res.Manifest.Parent != "1.0.0" {
		t.Fatalf("parent = %q", res.Manifest.Parent)
	}

	// The registry's serving pointer moved with the in-process swap, and
	// both agree on the version string.
	resolved, err := reg.ResolveServing("default")
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Version != "1.1.0" {
		t.Fatalf("registry serving %q", resolved.Version)
	}
	if m.Current().Version != resolved.Info.ID() {
		t.Fatalf("snapshot %q, registry %q", m.Current().Version, resolved.Info.ID())
	}

	// Attached servers stamp the new identity.
	rec, err := ps.ParseWait(context.Background(), recs[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != resolved.Info.ID() {
		t.Fatalf("served %q", rec.ModelVersion)
	}

	// The displaced 1.0.0 is still on disk and still verifies —
	// promotion is a pointer move, not an overwrite.
	if _, err := reg.Verify("default", "1.0.0"); err != nil {
		t.Fatalf("old serving no longer verifies: %v", err)
	}
}

func TestRetrainRejectionParksAtShadow(t *testing.T) {
	recs, _, strong := fixtures(t)
	reg, _ := seedRegistry(t, strong, "default")
	m, err := NewFromRegistry(reg, "default", Options{Holdout: holdoutSet(t)})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Current()

	corrupt := make([]*labels.LabeledRecord, 0, 150)
	for _, r := range recs[:150] {
		c := *r
		c.Lines = append([]labels.LabeledLine(nil), r.Lines...)
		for i := range c.Lines {
			c.Lines[i].Block = labels.Block((int(c.Lines[i].Block) + 1) % labels.NumBlocks)
		}
		corrupt = append(corrupt, &c)
	}

	res, err := m.Retrain(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatal("corrupt candidate promoted")
	}
	if res.Manifest == nil {
		t.Fatal("rejected candidate not published")
	}
	// The loser is parked at shadow: inspectable, not serving.
	st, err := reg.StageOf("default", res.Manifest.Version)
	if err != nil || st != modelreg.StageShadow {
		t.Fatalf("rejected candidate stage = %v, %v", st, err)
	}
	resolved, err := reg.ResolveServing("default")
	if err != nil || resolved.Version != "1.0.0" {
		t.Fatalf("serving after rejection = %+v, %v", resolved, err)
	}
	if m.Current() != before {
		t.Fatal("rejection replaced the live snapshot")
	}
}
