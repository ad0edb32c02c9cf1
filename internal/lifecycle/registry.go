package lifecycle

import (
	"errors"

	"repro/internal/modelreg"
	"repro/internal/store"
)

// ErrNoRegistry reports a registry-only operation on a Manager that
// NewFromRegistry did not build.
var ErrNoRegistry = errors.New("lifecycle: manager has no model registry")

// NewFromRegistry resolves the family's serving pointer in reg and
// builds a Manager serving that model. The snapshot names its registry
// entry (Family, SemVer) and stamps the artifact's "wmdl-<crc32c>", the
// same stamp a daemon loading those bytes from a file carries. An empty
// family means modelreg.DefaultFamily.
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
	return newManager(next, opts, reg, family), nil
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
	if m.registry == nil {
		return nil, false, ErrNoRegistry
	}
	res, err := m.registry.ResolveServing(m.family)
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
