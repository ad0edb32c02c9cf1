package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/modelreg"
	"repro/internal/store"
	"repro/internal/synth"
)

// registryFixture publishes two versions into a fresh registry —
// 1.0.0 promoted to serving, 1.1.0 staged as candidate — and returns a
// registry-backed parse stack serving 1.0.0, with both artifacts'
// identities.
func registryFixture(t *testing.T) (stk *daemon.Stack, infoA, infoB store.ModelInfo) {
	t.Helper()
	recs := synth.GenerateLabeled(synth.Config{N: 80, Seed: 29})
	pA, _, err := core.Train(recs[:40], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pB, _, err := core.Retrain(pA, recs, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	artA := filepath.Join(dir, "a.wmdl")
	artB := filepath.Join(dir, "b.wmdl")
	if infoA, err = store.SaveModel(pA, artA); err != nil {
		t.Fatal(err)
	}
	if infoB, err = store.SaveModel(pB, artB); err != nil {
		t.Fatal(err)
	}

	regDir := t.TempDir()
	reg, err := modelreg.Open(regDir, modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fam := modelreg.DefaultFamily
	mustPublish := func(path, version, parent string) {
		t.Helper()
		if _, err := reg.Publish(modelreg.PublishRequest{
			Family: fam, Version: version, Parent: parent, ArtifactPath: path,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(artA, "1.0.0", "")
	if err := reg.SetCandidate(fam, "1.0.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(fam, "1.0.0"); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(artB, "1.1.0", "1.0.0")
	if err := reg.SetCandidate(fam, "1.1.0"); err != nil {
		t.Fatal(err)
	}

	stk, err = daemon.Build(daemon.Config{
		Flags: daemon.Flags{Registry: regDir, Family: fam},
		Mode:  daemon.ModelIfSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stk.Close)
	return stk, infoA, infoB
}

func postJSON(t *testing.T, h http.Handler, target string) (int, map[string]any) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, nil))
	var body map[string]any
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", target, err, rr.Body.String())
		}
	}
	return rr.Code, body
}

// TestAdminStageMoveDrivesRegistry walks the staged candidate to
// serving through the promote endpoint, confirms the daemon swapped to
// it, and rolls back — the prior serving version must still be on disk,
// verify clean, and come back live.
func TestAdminStageMoveDrivesRegistry(t *testing.T) {
	stk, infoA, infoB := registryFixture(t)
	reg, mgr := stk.Registry, stk.Manager
	fam := modelreg.DefaultFamily
	promote := adminStageMove(reg, mgr, nil, fam, false)
	rollback := adminStageMove(reg, mgr, nil, fam, true)

	if mgr.Current().Version != infoA.ID() {
		t.Fatalf("fixture serving %q, want %q", mgr.Current().Version, infoA.ID())
	}

	// candidate -> shadow: the daemon keeps serving 1.0.0.
	code, body := postJSON(t, promote, "/admin/model/promote?version=1.1.0")
	if code != http.StatusOK || body["stage"] != "shadow" {
		t.Fatalf("promote to shadow: %d %v", code, body)
	}
	if mgr.Current().Version != infoA.ID() {
		t.Fatalf("shadow promote moved serving to %q", mgr.Current().Version)
	}

	// shadow -> serving: the daemon swaps in the same request.
	code, body = postJSON(t, promote, "/admin/model/promote?version=1.1.0")
	if code != http.StatusOK || body["stage"] != "serving" || body["swapped"] != true {
		t.Fatalf("promote to serving: %d %v", code, body)
	}
	if mgr.Current().Version != infoB.ID() || mgr.Current().SemVer != "1.1.0" {
		t.Fatalf("serving promote left daemon on %q (%s), want %q (1.1.0)",
			mgr.Current().Version, mgr.Current().SemVer, infoB.ID())
	}

	// The displaced version is still on disk and verifies.
	if _, err := reg.Verify(fam, "1.0.0"); err != nil {
		t.Fatalf("old serving version no longer verifies: %v", err)
	}

	// Rollback restores it, live.
	code, body = postJSON(t, rollback, "/admin/model/rollback?version=1.0.0")
	if code != http.StatusOK || body["swapped"] != true {
		t.Fatalf("rollback: %d %v", code, body)
	}
	if mgr.Current().Version != infoA.ID() || mgr.Current().SemVer != "1.0.0" {
		t.Fatalf("rollback left daemon on %q (%s), want %q (1.0.0)",
			mgr.Current().Version, mgr.Current().SemVer, infoA.ID())
	}

	// Guard rails: GET is rejected, a missing version is a 400, an
	// illegal transition surfaces as 422.
	rr := httptest.NewRecorder()
	promote.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/model/promote?version=1.1.0", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET promote = %d", rr.Code)
	}
	if code, _ := postJSON(t, promote, "/admin/model/promote"); code != http.StatusBadRequest {
		t.Errorf("promote without version = %d", code)
	}
	if code, _ := postJSON(t, promote, "/admin/model/promote?version=9.9.9"); code != http.StatusUnprocessableEntity {
		t.Errorf("promote of absent version = %d", code)
	}
}

// TestAdminReloadServingAndModels pins the read side: reload is a
// POST-only no-op while the pointer is unchanged, and /admin/models
// lists every version with its stage.
func TestAdminReloadServingAndModels(t *testing.T) {
	stk, _, infoB := registryFixture(t)
	reg, mgr := stk.Registry, stk.Manager

	reload := adminReload(stk)
	code, body := postJSON(t, reload, "/admin/reload")
	if code != http.StatusOK || body["changed"] != false {
		t.Fatalf("idle reload: %d %v", code, body)
	}
	if body["version"] != mgr.Current().Version {
		t.Fatalf("reload reported %v, serving %q", body["version"], mgr.Current().Version)
	}
	rr := httptest.NewRecorder()
	reload.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/reload", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reload = %d", rr.Code)
	}

	// An out-of-band promote (CLI, another process) becomes visible.
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(modelreg.DefaultFamily, "1.1.0"); err != nil {
			t.Fatal(err)
		}
	}
	code, body = postJSON(t, reload, "/admin/reload")
	if code != http.StatusOK || body["changed"] != true {
		t.Fatalf("post-promote reload: %d %v", code, body)
	}
	if body["version"] != infoB.ID() {
		t.Fatalf("reload landed on %v, want %q", body["version"], infoB.ID())
	}

	rr = httptest.NewRecorder()
	adminModels(reg).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/models", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET models = %d: %s", rr.Code, rr.Body.String())
	}
	var listings []modelreg.FamilyListing
	if err := json.Unmarshal(rr.Body.Bytes(), &listings); err != nil {
		t.Fatalf("models JSON: %v\n%s", err, rr.Body.String())
	}
	if len(listings) != 1 || len(listings[0].Versions) != 2 {
		t.Fatalf("listings = %+v", listings)
	}
	stages := map[string]string{}
	for _, v := range listings[0].Versions {
		stages[v.Version] = v.Stage
	}
	if stages["1.1.0"] != "serving" {
		t.Fatalf("stages = %v", stages)
	}
}
