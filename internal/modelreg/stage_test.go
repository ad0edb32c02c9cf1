package modelreg

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/store"
)

// publishTwo seeds a registry with 1.0.0 (artifact a) and 1.1.0
// (artifact b) in the given family.
func publishTwo(t testing.TB, r *Registry, family string) {
	t.Helper()
	a, b := artifacts(t)
	mustPublish(t, r, family, PublishRequest{Artifact: a})
	mustPublish(t, r, family, PublishRequest{Artifact: b, Parent: "1.0.0"})
}

// promoteToServing walks a version through the full pipeline.
func promoteToServing(t testing.TB, r *Registry, family, version string) {
	t.Helper()
	if err := r.SetCandidate(family, version); err != nil {
		t.Fatal(err)
	}
	if st, err := r.Promote(family, version); err != nil || st != StageShadow {
		t.Fatalf("promote to shadow: stage=%v err=%v", st, err)
	}
	if st, err := r.Promote(family, version); err != nil || st != StageServing {
		t.Fatalf("promote to serving: stage=%v err=%v", st, err)
	}
}

func TestPromotionPipeline(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")

	// Fresh publishes carry no stage.
	if st, err := r.StageOf("default", "1.0.0"); err != nil || st != StageNone {
		t.Fatalf("StageOf fresh = %v, %v", st, err)
	}
	// Nothing is serving yet.
	if _, err := r.ResolveServing("default"); !errors.Is(err, ErrNoSuchStage) {
		t.Fatalf("resolve empty serving = %v, want ErrNoSuchStage", err)
	}

	promoteToServing(t, r, "default", "1.0.0")

	res, err := r.ResolveServing("default")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != "1.0.0" || res.Stage != StageServing || res.Family != "default" {
		t.Fatalf("resolved %+v", res)
	}
	if res.Manifest.Artifact.CRC32C != res.Info.CRC32C {
		t.Fatal("manifest and header disagree on CRC")
	}
	// The resolved identity is the published artifact's own.
	art, _ := artifacts(t)
	info, err := store.VerifyModelBytes(art)
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.ID() != info.ID() {
		t.Fatalf("resolved identity %q, want %q", res.Info.ID(), info.ID())
	}

	// Candidate and shadow pointers were consumed by the walk.
	if st, _ := r.StageOf("default", "1.0.0"); st != StageServing {
		t.Fatalf("StageOf = %v", st)
	}
	if _, err := r.Resolve("default", StageCandidate); !errors.Is(err, ErrNoSuchStage) {
		t.Fatalf("candidate still set: %v", err)
	}
}

func TestPromoteSuccessionKeepsOldServing(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")
	promoteToServing(t, r, "default", "1.0.0")
	promoteToServing(t, r, "default", "1.1.0")

	res, err := r.ResolveServing("default")
	if err != nil || res.Version != "1.1.0" {
		t.Fatalf("serving = %+v, %v", res, err)
	}
	// The displaced version keeps its artifact and still verifies.
	if _, err := os.Stat(r.ArtifactPath("default", "1.0.0")); err != nil {
		t.Fatalf("old serving artifact gone: %v", err)
	}
	if _, err := r.Verify("default", "1.0.0"); err != nil {
		t.Fatalf("old serving no longer verifies: %v", err)
	}
}

func TestPromoteRejectsIllegalTransitions(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")

	// Unstaged version cannot promote.
	if _, err := r.Promote("default", "1.0.0"); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("promote unstaged = %v, want ErrBadTransition", err)
	}
	// SetCandidate requires a published version.
	if err := r.SetCandidate("default", "9.9.9"); err == nil {
		t.Fatal("candidate for unpublished version accepted")
	}
	// A version not at the named stage cannot promote past another.
	if err := r.SetCandidate("default", "1.0.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote("default", "1.1.0"); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("promote non-candidate = %v, want ErrBadTransition", err)
	}
}

func TestRollback(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")
	promoteToServing(t, r, "default", "1.0.0")
	promoteToServing(t, r, "default", "1.1.0")

	// 1.0.0 served before: rollback allowed.
	if err := r.Rollback("default", "1.0.0"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ResolveServing("default")
	if err != nil || res.Version != "1.0.0" {
		t.Fatalf("after rollback serving = %+v, %v", res, err)
	}
	// Roll forward again — 1.1.0 served too.
	if err := r.Rollback("default", "1.1.0"); err != nil {
		t.Fatal(err)
	}

	// A published-but-never-served version is not a rollback target.
	a, _ := artifacts(t)
	mustPublish(t, r, "default", PublishRequest{Artifact: a})
	if err := r.Rollback("default", "1.2.0"); !errors.Is(err, ErrNeverServed) {
		t.Fatalf("rollback to never-served = %v, want ErrNeverServed", err)
	}

	hist, err := r.History("default")
	if err != nil {
		t.Fatal(err)
	}
	// candidate, shadow, serving ×2 walks + 2 rollbacks = 8 entries.
	if len(hist) != 8 {
		t.Fatalf("history entries = %d: %+v", len(hist), hist)
	}
	last := hist[len(hist)-1]
	if last.Event != "rollback" || last.Version != "1.1.0" {
		t.Fatalf("last journal entry = %+v", last)
	}
}

func TestCorruptArtifactRefusesPromotion(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")
	promoteToServing(t, r, "default", "1.0.0")

	if err := r.SetCandidate("default", "1.1.0"); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the staged artifact.
	path := r.ArtifactPath("default", "1.1.0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Promote("default", "1.1.0"); err == nil {
		t.Fatal("corrupt artifact promoted")
	}
	// Serving is untouched and still resolves.
	res, err := r.ResolveServing("default")
	if err != nil || res.Version != "1.0.0" {
		t.Fatalf("serving after refused promotion = %+v, %v", res, err)
	}
}

func TestCorruptManifestRefusesPromotion(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")
	if err := r.SetCandidate("default", "1.1.0"); err != nil {
		t.Fatal(err)
	}
	path := r.ManifestPath("default", "1.1.0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Promote("default", "1.1.0"); err == nil {
		t.Fatal("corrupt manifest promoted")
	}
}

func TestResolveCatchesPointerSkew(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")
	promoteToServing(t, r, "default", "1.0.0")

	// Hand-edit the serving pointer to a wrong CRC: Resolve must refuse
	// rather than serve a model that is not what the pointer promised.
	if err := r.writePointer("default", StageServing, Pointer{Version: "1.0.0", CRC32C: 0xdeadbeef}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ResolveServing("default"); err == nil {
		t.Fatal("skewed pointer resolved")
	}
}

func TestParseStage(t *testing.T) {
	for _, st := range []Stage{StageCandidate, StageShadow, StageServing, StageNone} {
		got, err := ParseStage(st.String())
		if err != nil || got != st {
			t.Fatalf("ParseStage(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseStage("production"); err == nil {
		t.Fatal("unknown stage accepted")
	}
}

func TestHistorySkipsTornLines(t *testing.T) {
	r := testRegistry(t)
	publishTwo(t, r, "default")
	promoteToServing(t, r, "default", "1.0.0")

	f, err := os.OpenFile(r.familyDir("default")+"/"+historyName, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("1754600 serv"); err != nil { // torn append
		t.Fatal(err)
	}
	f.Close()

	hist, err := r.History("default")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history = %d entries, want 3 (torn line skipped)", len(hist))
	}
}

// ParseStage parses a stage name.
func ParseStage(s string) (Stage, error) {
	switch s {
	case "candidate":
		return StageCandidate, nil
	case "shadow":
		return StageShadow, nil
	case "serving":
		return StageServing, nil
	case "none", "":
		return StageNone, nil
	}
	return StageNone, fmt.Errorf("modelreg: unknown stage %q", s)
}
