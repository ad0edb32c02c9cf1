package modelreg

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/store"
)

// Verify checks one version end to end: the manifest's self-checksum,
// the artifact's full streamed payload CRC32C, and the cross-binding
// between the two (format version, feature dims, size, checksum, and
// that the manifest really names this family and version). It is the
// gate every promotion and rollback runs behind.
func (r *Registry) Verify(family, version string) (*Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.verifyLocked(family, version)
}

func (r *Registry) verifyLocked(family, version string) (*Manifest, error) {
	m, err := r.verifyInner(family, version)
	if err != nil {
		r.met.verifyFails.Inc()
		r.log.Info("verify failed", "family", family, "version", version, "err", err.Error())
	}
	return m, err
}

func (r *Registry) verifyInner(family, version string) (*Manifest, error) {
	if err := checkFamily(family); err != nil {
		return nil, err
	}
	m, err := r.Manifest(family, version) // self-checksum checked inside
	if err != nil {
		return nil, err
	}
	if m.Family != family || m.Version != version {
		return nil, fmt.Errorf("modelreg: verify %s/%s: manifest claims to be %s/%s",
			family, version, m.Family, m.Version)
	}
	path := r.ArtifactPath(family, version)
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("modelreg: verify %s/%s: %w", family, version, err)
	}
	if uint64(st.Size()) != m.Artifact.SizeBytes {
		return nil, fmt.Errorf("modelreg: verify %s/%s: artifact is %d bytes, manifest says %d",
			family, version, st.Size(), m.Artifact.SizeBytes)
	}
	info, err := store.VerifyModel(path) // full payload re-hash
	if err != nil {
		return nil, fmt.Errorf("modelreg: verify %s/%s: %w", family, version, err)
	}
	if info.CRC32C != m.Artifact.CRC32C ||
		info.FormatVersion != m.Artifact.FormatVersion ||
		info.BlockFeatures != m.Artifact.BlockFeatures ||
		info.FieldFeatures != m.Artifact.FieldFeatures {
		return nil, fmt.Errorf("modelreg: verify %s/%s: artifact %s does not match manifest (crc %08x block=%d field=%d)",
			family, version, info.String(), m.Artifact.CRC32C, m.Artifact.BlockFeatures, m.Artifact.FieldFeatures)
	}
	return m, nil
}

// VerifyResult is one version's line in a registry-wide verify sweep.
type VerifyResult struct {
	Family  string `json:"family"`
	Version string `json:"version"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
}

// VerifyAll verifies every version of every family and reports each
// outcome; it only errors when the registry itself is unreadable.
func (r *Registry) VerifyAll() ([]VerifyResult, error) {
	fams, err := r.Families()
	if err != nil {
		return nil, err
	}
	var out []VerifyResult
	for _, f := range fams {
		vers, err := r.Versions(f)
		if err != nil {
			return nil, err
		}
		for _, v := range vers {
			res := VerifyResult{Family: f, Version: v, OK: true}
			if _, err := r.Verify(f, v); err != nil {
				res.OK = false
				res.Error = err.Error()
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// --- diff ---

// DiffReport compares two versions of one family — the "what actually
// changed between the model that worked and the one that doesn't"
// answer.
type DiffReport struct {
	Family string    `json:"family"`
	A, B   *Manifest `json:"-"`

	VersionA string `json:"version_a"`
	VersionB string `json:"version_b"`
	// SameArtifact is true when the two versions contain byte-identical
	// models (same CRC and size) — a re-publish, not a retrain.
	SameArtifact bool `json:"same_artifact"`
	// DimsChanged is true when feature dimensions differ — the models
	// are from different featurization regimes, not just different data.
	DimsChanged bool `json:"dims_changed"`
	// Lineal is true when B descends from A through parent pointers (or
	// vice versa when B is older).
	Lineal bool `json:"lineal"`
	// DeltaTokenAccuracy/DeltaRecordAccuracy are B's shadow scores minus
	// A's (zero when either side never recorded scores).
	DeltaTokenAccuracy  float64 `json:"delta_token_accuracy"`
	DeltaRecordAccuracy float64 `json:"delta_record_accuracy"`
}

// Diff loads, verifies nothing, and compares the manifests of two
// versions in one family.
func (r *Registry) Diff(family, verA, verB string) (*DiffReport, error) {
	a, err := r.Manifest(family, verA)
	if err != nil {
		return nil, err
	}
	b, err := r.Manifest(family, verB)
	if err != nil {
		return nil, err
	}
	d := &DiffReport{
		Family: family, A: a, B: b,
		VersionA:     verA,
		VersionB:     verB,
		SameArtifact: a.Artifact.CRC32C == b.Artifact.CRC32C && a.Artifact.SizeBytes == b.Artifact.SizeBytes,
		DimsChanged: a.Artifact.BlockFeatures != b.Artifact.BlockFeatures ||
			a.Artifact.FieldFeatures != b.Artifact.FieldFeatures,
	}
	d.Lineal = r.descends(family, verB, verA) || r.descends(family, verA, verB)
	if a.Provenance.ShadowTokenAccuracy != 0 && b.Provenance.ShadowTokenAccuracy != 0 {
		d.DeltaTokenAccuracy = b.Provenance.ShadowTokenAccuracy - a.Provenance.ShadowTokenAccuracy
		d.DeltaRecordAccuracy = b.Provenance.ShadowRecordAccuracy - a.Provenance.ShadowRecordAccuracy
	}
	return d, nil
}

// descends walks parent pointers from child looking for ancestor.
func (r *Registry) descends(family, child, ancestor string) bool {
	cur := child
	for i := 0; i < 1000 && cur != ""; i++ { // bound against parent cycles
		m, err := r.Manifest(family, cur)
		if err != nil {
			return false
		}
		if m.Parent == ancestor {
			return true
		}
		cur = m.Parent
	}
	return false
}

// Render formats the diff for terminals.
func (d *DiffReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s -> %s\n", d.Family, d.VersionA, d.VersionB)
	line := func(label, av, bv string) {
		marker := " "
		if av != bv {
			marker = "*"
		}
		fmt.Fprintf(&b, " %s %-16s %-24s %s\n", marker, label, av, bv)
	}
	line("crc32c", fmt.Sprintf("%08x", d.A.Artifact.CRC32C), fmt.Sprintf("%08x", d.B.Artifact.CRC32C))
	line("size", fmt.Sprintf("%d", d.A.Artifact.SizeBytes), fmt.Sprintf("%d", d.B.Artifact.SizeBytes))
	line("block feats", fmt.Sprintf("%d", d.A.Artifact.BlockFeatures), fmt.Sprintf("%d", d.B.Artifact.BlockFeatures))
	line("field feats", fmt.Sprintf("%d", d.A.Artifact.FieldFeatures), fmt.Sprintf("%d", d.B.Artifact.FieldFeatures))
	line("parent", d.A.Parent, d.B.Parent)
	line("trainer", d.A.Provenance.Trainer, d.B.Provenance.Trainer)
	line("corpus", d.A.Provenance.CorpusPath, d.B.Provenance.CorpusPath)
	line("seq range",
		fmt.Sprintf("%d..%d", d.A.Provenance.SeqFirst, d.A.Provenance.SeqLast),
		fmt.Sprintf("%d..%d", d.B.Provenance.SeqFirst, d.B.Provenance.SeqLast))
	line("shadow tok acc",
		fmt.Sprintf("%.4f", d.A.Provenance.ShadowTokenAccuracy),
		fmt.Sprintf("%.4f", d.B.Provenance.ShadowTokenAccuracy))
	line("shadow rec acc",
		fmt.Sprintf("%.4f", d.A.Provenance.ShadowRecordAccuracy),
		fmt.Sprintf("%.4f", d.B.Provenance.ShadowRecordAccuracy))
	switch {
	case d.SameArtifact:
		b.WriteString("   artifacts are byte-identical\n")
	case d.DimsChanged:
		b.WriteString("   feature dimensions differ: different featurization regimes\n")
	}
	if d.DeltaTokenAccuracy != 0 || d.DeltaRecordAccuracy != 0 {
		fmt.Fprintf(&b, "   accuracy delta: token %+.4f, record %+.4f\n",
			d.DeltaTokenAccuracy, d.DeltaRecordAccuracy)
	}
	return b.String()
}

// --- gc ---

// GC removes unstaged versions of a family beyond the newest keep,
// returning the versions removed. Staged versions (candidate, shadow,
// serving) are always protected regardless of age, so rollback targets
// currently in the pipeline can never be collected; journal-only
// history older than the keep window is fair game — the journal line
// remains, the artifact goes.
func (r *Registry) GC(family string, keep int) ([]string, error) {
	if keep < 0 {
		keep = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	vers, err := r.Versions(family)
	if err != nil {
		return nil, err
	}
	protected := map[string]bool{}
	for _, st := range []Stage{StageCandidate, StageShadow, StageServing} {
		if ptr, err := r.readPointer(family, st); err == nil {
			protected[ptr.Version] = true
		}
	}
	// Versions() is ascending; protect the newest keep.
	for i := len(vers) - keep; i < len(vers); i++ {
		if i >= 0 {
			protected[vers[i]] = true
		}
	}
	var removed []string
	for _, v := range vers {
		if protected[v] {
			continue
		}
		if err := os.RemoveAll(r.versionDir(family, v)); err != nil {
			return removed, fmt.Errorf("modelreg: gc %s/%s: %w", family, v, err)
		}
		removed = append(removed, v)
		r.met.gcRemoved.Inc()
		r.log.Info("gc removed", "family", family, "version", v)
	}
	if len(removed) > 0 {
		if err := store.SyncDir(filepath.Join(r.familyDir(family), versionsDir)); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// GCAll runs GC over every family with one keep policy; returns
// family → removed versions (families with nothing removed are
// omitted).
func (r *Registry) GCAll(keep int) (map[string][]string, error) {
	fams, err := r.Families()
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for _, f := range fams {
		removed, err := r.GC(f, keep)
		if err != nil {
			return out, err
		}
		if len(removed) > 0 {
			out[f] = removed
		}
	}
	return out, nil
}
