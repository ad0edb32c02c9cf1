package modelreg

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/synth"
)

// Shared fixtures: two distinct trained artifacts, built once per
// process (training dominates test time otherwise).
var (
	artOnce sync.Once
	artA    []byte // trained on the first slice
	artB    []byte // retrained on more data — different bytes, same dims
	artErr  error
)

func artifacts(t testing.TB) ([]byte, []byte) {
	t.Helper()
	artOnce.Do(func() {
		recs := synth.GenerateLabeled(synth.Config{N: 120, Seed: 7})
		pA, _, err := core.Train(recs[:40], core.DefaultConfig())
		if err != nil {
			artErr = err
			return
		}
		pB, _, err := core.Retrain(pA, recs[:100], core.DefaultConfig())
		if err != nil {
			artErr = err
			return
		}
		dir, err := os.MkdirTemp("", "modelreg-fixture-*")
		if err != nil {
			artErr = err
			return
		}
		defer os.RemoveAll(dir)
		for _, f := range []struct {
			p   *core.Parser
			dst *[]byte
		}{{pA, &artA}, {pB, &artB}} {
			path := filepath.Join(dir, "m.wmdl")
			if _, err := store.SaveModel(f.p, path); err != nil {
				artErr = err
				return
			}
			*f.dst, artErr = os.ReadFile(path)
			if artErr != nil {
				return
			}
		}
	})
	if artErr != nil {
		t.Fatal(artErr)
	}
	return artA, artB
}

func testRegistry(t testing.TB) *Registry {
	t.Helper()
	fixed := time.Unix(1754600000, 0)
	r, err := Open(t.TempDir(), Options{Now: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustPublish(t testing.TB, r *Registry, family string, req PublishRequest) *Manifest {
	t.Helper()
	req.Family = family
	m, err := r.Publish(req)
	if err != nil {
		t.Fatalf("publish %s: %v", family, err)
	}
	return m
}

func TestPublishAllocatesVersions(t *testing.T) {
	a, b := artifacts(t)
	r := testRegistry(t)

	m1 := mustPublish(t, r, "default", PublishRequest{Artifact: a})
	if m1.Version != "1.0.0" {
		t.Fatalf("first publish allocated %q, want 1.0.0", m1.Version)
	}
	m2 := mustPublish(t, r, "default", PublishRequest{Artifact: b, Parent: m1.Version})
	if m2.Version != "1.1.0" {
		t.Fatalf("second publish allocated %q, want 1.1.0", m2.Version)
	}
	if m2.Parent != "1.0.0" {
		t.Fatalf("parent = %q", m2.Parent)
	}

	vers, err := r.Versions("default")
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != 2 || vers[0] != "1.0.0" || vers[1] != "1.1.0" {
		t.Fatalf("versions = %v", vers)
	}

	// The artifact on disk is the exact bytes published.
	got, err := os.ReadFile(r.ArtifactPath("default", "1.0.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(a) {
		t.Fatal("artifact bytes differ from published bytes")
	}
}

func TestPublishExplicitAndDuplicate(t *testing.T) {
	a, _ := artifacts(t)
	r := testRegistry(t)

	m := mustPublish(t, r, "tld-com", PublishRequest{Artifact: a, Version: "2.0.0"})
	if m.Version != "2.0.0" {
		t.Fatalf("version = %q", m.Version)
	}
	if _, err := r.Publish(PublishRequest{Family: "tld-com", Artifact: a, Version: "2.0.0"}); !errors.Is(err, ErrVersionExists) {
		t.Fatalf("duplicate publish err = %v, want ErrVersionExists", err)
	}
	// Auto-allocation continues from the explicit version.
	m2 := mustPublish(t, r, "tld-com", PublishRequest{Artifact: a})
	if m2.Version != "2.1.0" {
		t.Fatalf("next version = %q, want 2.1.0", m2.Version)
	}
}

func TestPublishRejects(t *testing.T) {
	a, _ := artifacts(t)
	r := testRegistry(t)

	if _, err := r.Publish(PublishRequest{Family: "Bad Family", Artifact: a}); err == nil {
		t.Fatal("bad family accepted")
	}
	if _, err := r.Publish(PublishRequest{Family: "default", Artifact: []byte("not a model")}); err == nil {
		t.Fatal("garbage artifact accepted")
	}
	corrupt := append([]byte(nil), a...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := r.Publish(PublishRequest{Family: "default", Artifact: corrupt}); err == nil {
		t.Fatal("corrupt artifact accepted")
	}
	if _, err := r.Publish(PublishRequest{Family: "default", Artifact: a, Parent: "9.9.9"}); err == nil {
		t.Fatal("missing parent accepted")
	}
	if _, err := r.Publish(PublishRequest{Family: "default", Artifact: a, Version: "1.0"}); err == nil {
		t.Fatal("malformed version accepted")
	}
	// Nothing should have been published by any of the rejects.
	if vers, _ := r.Versions("default"); len(vers) != 0 {
		t.Fatalf("rejected publishes left versions behind: %v", vers)
	}
}

func TestPublishFromPath(t *testing.T) {
	a, _ := artifacts(t)
	r := testRegistry(t)
	src := filepath.Join(t.TempDir(), "src.wmdl")
	if err := os.WriteFile(src, a, 0o644); err != nil {
		t.Fatal(err)
	}
	m := mustPublish(t, r, "default", PublishRequest{ArtifactPath: src})
	if m.Artifact.SizeBytes != uint64(len(a)) {
		t.Fatalf("size = %d, want %d", m.Artifact.SizeBytes, len(a))
	}
}

func TestManifestSealDetectsTamper(t *testing.T) {
	a, _ := artifacts(t)
	r := testRegistry(t)
	mustPublish(t, r, "default", PublishRequest{Artifact: a, Provenance: Provenance{Trainer: "test"}})

	if _, err := r.Manifest("default", "1.0.0"); err != nil {
		t.Fatalf("pristine manifest failed: %v", err)
	}
	path := r.ManifestPath("default", "1.0.0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(strings.ReplaceAll(string(data), `"trainer": "test"`, `"trainer": "evil"`))
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Manifest("default", "1.0.0"); !errors.Is(err, ErrManifestChecksum) {
		t.Fatalf("tampered manifest err = %v, want ErrManifestChecksum", err)
	}
}

func TestListFamily(t *testing.T) {
	a, b := artifacts(t)
	r := testRegistry(t)
	mustPublish(t, r, "default", PublishRequest{Artifact: a, Provenance: Provenance{ShadowTokenAccuracy: 0.91}})
	mustPublish(t, r, "default", PublishRequest{Artifact: b, Parent: "1.0.0"})
	mustPublish(t, r, "tld-com", PublishRequest{Artifact: a})

	if err := r.SetCandidate("default", "1.1.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote("default", "1.1.0"); err != nil { // -> shadow
		t.Fatal(err)
	}

	l, err := r.ListFamily("default")
	if err != nil {
		t.Fatal(err)
	}
	if l.Shadow != "1.1.0" || l.Serving != "" || l.Candidate != "" {
		t.Fatalf("stages = serving=%q shadow=%q candidate=%q", l.Serving, l.Shadow, l.Candidate)
	}
	if len(l.Versions) != 2 {
		t.Fatalf("versions = %d", len(l.Versions))
	}
	if l.Versions[0].ShadowTokenAccuracy != 0.91 {
		t.Fatalf("listing lost provenance: %+v", l.Versions[0])
	}
	if l.Versions[1].Stage != "shadow" {
		t.Fatalf("1.1.0 stage = %q", l.Versions[1].Stage)
	}

	all, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("families listed = %d", len(all))
	}

	fams, err := r.Families()
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 || fams[0] != "default" || fams[1] != "tld-com" {
		t.Fatalf("families = %v", fams)
	}
}

func TestParseVersion(t *testing.T) {
	good := map[string]Version{
		"1.0.0":    {1, 0, 0},
		"0.9.12":   {0, 9, 12},
		"10.20.30": {10, 20, 30},
	}
	for s, want := range good {
		v, err := ParseVersion(s)
		if err != nil || v != want {
			t.Fatalf("ParseVersion(%q) = %v, %v", s, v, err)
		}
		if v.String() != s {
			t.Fatalf("roundtrip %q -> %q", s, v.String())
		}
	}
	for _, s := range []string{"", "1.0", "1.0.0.0", "v1.0.0", "1.0.-1", "01.0.0", "1.00.0", "1.0.0-rc1"} {
		if _, err := ParseVersion(s); err == nil {
			t.Fatalf("ParseVersion(%q) accepted", s)
		}
	}
	if got := (Version{1, 2, 3}).BumpMinor(); got != (Version{1, 3, 0}) {
		t.Fatalf("BumpMinor = %v", got)
	}
	if got := (Version{1, 2, 3}).BumpPatch(); got != (Version{1, 2, 4}) {
		t.Fatalf("BumpPatch = %v", got)
	}
	if !(Version{1, 9, 9}).Less(Version{2, 0, 0}) || (Version{2, 0, 0}).Less(Version{1, 9, 9}) {
		t.Fatal("Less ordering broken")
	}
}

// BumpPatch returns the next patch version.
func (v Version) BumpPatch() Version {
	return Version{v.Major, v.Minor, v.Patch + 1}
}
