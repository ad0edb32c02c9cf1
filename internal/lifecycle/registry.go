package lifecycle

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/store"
)

// ErrNoRegistry reports a registry-only operation on a Manager built
// without Options.Registry.
var ErrNoRegistry = errors.New("lifecycle: manager has no model registry")

// family returns the registry family this manager serves.
func (m *Manager) family() string {
	if m.opts.Family != "" {
		return m.opts.Family
	}
	return modelreg.DefaultFamily
}

// NewFromRegistry resolves the family's serving pointer in reg and
// builds a Manager serving that model. The snapshot names its registry
// entry (Family, SemVer) and stamps the artifact's "wmdl-<crc32c>", the
// same stamp a daemon loading those bytes from a file carries.
// opts.Registry and opts.Family are overwritten from the arguments.
func NewFromRegistry(reg *modelreg.Registry, family string, opts Options) (*Manager, error) {
	if family == "" {
		family = modelreg.DefaultFamily
	}
	res, err := reg.ResolveServing(family)
	if err != nil {
		return nil, err
	}
	next, err := loadResolved(res)
	if err != nil {
		return nil, err
	}
	opts.Registry = reg
	opts.Family = family
	return newManager(next, opts), nil
}

// loadResolved reads a resolved registry artifact into an unpublished
// snapshot, its identity taken from the read that decoded the weights.
func loadResolved(res *modelreg.Resolved) (Snapshot, error) {
	p, info, err := store.LoadModel(res.Path)
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Parser: p, Info: info, Path: res.Path, Family: res.Family, SemVer: res.Version}, nil
}

// ReloadServing re-resolves the family's serving pointer and swaps the
// resolved model live — the SIGHUP / admin path for registry-backed
// daemons. When the pointer still names the registry version already
// serving, nothing swaps and changed is false: a promote on another
// process (or the CLI) becomes visible with a signal, while redundant
// signals are free. The resolved artifact is fully validated before anything is
// published; a corrupt registry entry leaves the old model serving.
func (m *Manager) ReloadServing() (snap *Snapshot, changed bool, err error) {
	if m.opts.Registry == nil {
		return nil, false, ErrNoRegistry
	}
	res, err := m.opts.Registry.ResolveServing(m.family())
	if err != nil {
		return nil, false, err
	}
	if cur := m.cur.Load(); cur.Family == res.Family && cur.SemVer == res.Version {
		return cur, false, nil
	}
	next, err := loadResolved(res)
	if err != nil {
		return nil, false, err
	}
	snap = m.swap(next)
	m.met.reloads.Inc()
	return snap, true, nil
}

// publishCandidate publishes a retrain candidate into the registry with
// full provenance and stages it as the family's candidate. Called with
// retrainMu held.
func (m *Manager) publishCandidate(cand *core.Parser, report ShadowReport, trainRecords int) (*modelreg.Manifest, error) {
	reg := m.opts.Registry
	family := m.family()
	// Serialize through the registry's own publish path: write the WMDL
	// to a scratch file, publish the verified bytes.
	tmp, err := tempArtifact(cand)
	if err != nil {
		return nil, err
	}
	defer tmp.cleanup()

	live := m.cur.Load()
	parent := ""
	if live != nil && live.Family == family {
		parent = live.SemVer
	}
	manifest, err := reg.Publish(modelreg.PublishRequest{
		Family:       family,
		Parent:       parent,
		ArtifactPath: tmp.path,
		Provenance: modelreg.Provenance{
			CorpusPath:           m.opts.CorpusPath,
			TrainRecords:         trainRecords,
			HoldoutRecords:       len(m.opts.Holdout),
			ShadowTokenAccuracy:  1 - report.CandBlocks.LineErrorRate(),
			ShadowRecordAccuracy: 1 - report.CandBlocks.DocErrorRate(),
			LiveTokenAccuracy:    1 - report.LiveBlocks.LineErrorRate(),
			LiveRecordAccuracy:   1 - report.LiveBlocks.DocErrorRate(),
			Trainer:              "lifecycle.Retrain",
		},
	})
	if err != nil {
		return nil, err
	}
	if err := reg.SetCandidate(family, manifest.Version); err != nil {
		return manifest, err
	}
	return manifest, nil
}

// promoteThroughRegistry walks an already-staged candidate version to
// serving (candidate → shadow → serving, each move verify-gated) and
// returns the resolved serving entry. Called with retrainMu held.
func (m *Manager) promoteThroughRegistry(version string) (*modelreg.Resolved, error) {
	reg := m.opts.Registry
	family := m.family()
	if _, err := reg.Promote(family, version); err != nil {
		return nil, err
	}
	if _, err := reg.Promote(family, version); err != nil {
		return nil, err
	}
	return reg.ResolveServing(family)
}

// parkAtShadow moves a rejected candidate to the shadow stage and
// leaves it there — the audit trail: the version, its provenance, and
// its losing scores stay inspectable (`model list`, `model diff`)
// instead of evaporating with the training run.
func (m *Manager) parkAtShadow(version string) error {
	_, err := m.opts.Registry.Promote(m.family(), version)
	return err
}

// scratch is a temporary WMDL written only so Publish can verify and
// copy it; the registry's copy is the durable one.
type scratch struct{ path, dir string }

func (s scratch) cleanup() { os.RemoveAll(s.dir) }

func tempArtifact(p *core.Parser) (scratch, error) {
	dir, err := os.MkdirTemp("", "lifecycle-candidate-*")
	if err != nil {
		return scratch{}, fmt.Errorf("lifecycle: scratch artifact: %w", err)
	}
	path := filepath.Join(dir, "candidate.wmdl")
	if _, err := store.SaveModel(p, path); err != nil {
		os.RemoveAll(dir)
		return scratch{}, fmt.Errorf("lifecycle: scratch artifact: %w", err)
	}
	return scratch{path: path, dir: dir}, nil
}
