package modelreg

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/store"
)

// Stage is a version's position in the promotion pipeline. A stage is a
// pointer owned by the family, not a property of the version: at most
// one version per family occupies each stage, and moving a pointer
// never touches the artifacts it points at.
type Stage int

const (
	// StageNone: published, not staged.
	StageNone Stage = iota
	// StageCandidate: freshly trained, awaiting shadow evaluation.
	StageCandidate
	// StageShadow: under side-by-side evaluation against serving.
	StageShadow
	// StageServing: the version daemons resolve and serve.
	StageServing
)

func (s Stage) String() string {
	switch s {
	case StageNone:
		return "none"
	case StageCandidate:
		return "candidate"
	case StageShadow:
		return "shadow"
	case StageServing:
		return "serving"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stage and transition errors.
var (
	ErrNoSuchStage = errors.New("modelreg: stage not set")
	// ErrBadTransition reports a stage move the state machine forbids
	// (e.g. promoting a version that is not the current candidate).
	ErrBadTransition = errors.New("modelreg: illegal stage transition")
	// ErrNeverServed reports a rollback to a version the journal never
	// recorded as serving.
	ErrNeverServed = errors.New("modelreg: rollback target never served")
)

// Pointer is one decoded stage pointer: the version it names and the
// artifact CRC recorded at the time the pointer moved (a cheap
// split-brain check — Resolve cross-checks it against the manifest).
type Pointer struct {
	Version string
	CRC32C  uint32
}

func (r *Registry) pointerPath(family string, st Stage) string {
	return filepath.Join(r.familyDir(family), st.String()+ptrSuffix)
}

// readPointer decodes a stage pointer; ErrNoSuchStage when unset.
func (r *Registry) readPointer(family string, st Stage) (Pointer, error) {
	data, err := os.ReadFile(r.pointerPath(family, st))
	if os.IsNotExist(err) {
		return Pointer{}, fmt.Errorf("%w: %s/%s", ErrNoSuchStage, family, st)
	}
	if err != nil {
		return Pointer{}, fmt.Errorf("modelreg: read %s pointer: %w", st, err)
	}
	fields := strings.Fields(strings.TrimSpace(string(data)))
	if len(fields) != 2 {
		return Pointer{}, fmt.Errorf("modelreg: corrupt %s pointer %q", st, strings.TrimSpace(string(data)))
	}
	crc, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return Pointer{}, fmt.Errorf("modelreg: corrupt %s pointer crc %q", st, fields[1])
	}
	return Pointer{Version: fields[0], CRC32C: uint32(crc)}, nil
}

// writePointer moves a stage pointer — one atomic, fsynced rename.
func (r *Registry) writePointer(family string, st Stage, p Pointer) error {
	line := fmt.Sprintf("%s %08x\n", p.Version, p.CRC32C)
	return store.WriteFileSync(r.pointerPath(family, st), []byte(line))
}

// clearPointer removes a stage pointer (absent is fine).
func (r *Registry) clearPointer(family string, st Stage) error {
	err := os.Remove(r.pointerPath(family, st))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return store.SyncDir(r.familyDir(family))
}

// StageOf reports which stage currently names (family, version).
func (r *Registry) StageOf(family, version string) (Stage, error) {
	if err := checkFamily(family); err != nil {
		return StageNone, err
	}
	for _, st := range []Stage{StageServing, StageShadow, StageCandidate} {
		ptr, err := r.readPointer(family, st)
		if err == nil && ptr.Version == version {
			return st, nil
		}
	}
	return StageNone, nil
}

// --- journal ---

// JournalEntry is one line of a family's promotion history.
type JournalEntry struct {
	Unix    int64  `json:"unix"`
	Event   string `json:"event"` // candidate | shadow | serving | rollback
	Version string `json:"version"`
	CRC32C  uint32 `json:"crc32c"`
}

// appendJournal durably appends one history line.
func (r *Registry) appendJournal(family string, e JournalEntry) error {
	path := filepath.Join(r.familyDir(family), historyName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := fmt.Fprintf(f, "%d %s %s %08x\n", e.Unix, e.Event, e.Version, e.CRC32C)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// History returns a family's promotion journal, oldest first. Corrupt
// lines are skipped: the journal is an audit trail, and a torn final
// append must not make history unreadable.
func (r *Registry) History(family string) ([]JournalEntry, error) {
	if err := checkFamily(family); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(r.familyDir(family), historyName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("modelreg: history %s: %w", family, err)
	}
	defer f.Close()
	var out []JournalEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			continue
		}
		ts, err1 := strconv.ParseInt(fields[0], 10, 64)
		crc, err2 := strconv.ParseUint(fields[3], 16, 32)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, JournalEntry{Unix: ts, Event: fields[1], Version: fields[2], CRC32C: uint32(crc)})
	}
	return out, sc.Err()
}

// --- the state machine ---

// SetCandidate stages a published version as the family's candidate —
// the entry point of the pipeline. Replacing an existing candidate is
// allowed (the newest candidate wins; the replaced version keeps its
// artifact, losing only the stage).
func (r *Registry) SetCandidate(family, version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.Manifest(family, version)
	if err != nil {
		return err
	}
	if err := r.writePointer(family, StageCandidate, Pointer{version, m.Artifact.CRC32C}); err != nil {
		return fmt.Errorf("modelreg: candidate %s/%s: %w", family, version, err)
	}
	r.log.Info("staged candidate", "family", family, "version", version)
	return r.appendJournal(family, JournalEntry{r.now().Unix(), "candidate", version, m.Artifact.CRC32C})
}

// Promote advances a version one stage: candidate → shadow, or shadow →
// serving. The version must be the current occupant of its stage (you
// cannot promote around the pipeline), and it must Verify — a corrupted
// artifact or manifest refuses promotion with everything unchanged.
// Promotion to serving leaves the previous serving version fully intact
// in the registry; only the pointer moves, and the journal records the
// succession. Returns the stage the version now occupies.
func (r *Registry) Promote(family, version string) (Stage, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	var from, to Stage
	if ptr, err := r.readPointer(family, StageCandidate); err == nil && ptr.Version == version {
		from, to = StageCandidate, StageShadow
	} else if ptr, err := r.readPointer(family, StageShadow); err == nil && ptr.Version == version {
		from, to = StageShadow, StageServing
	} else {
		return StageNone, fmt.Errorf("%w: %s/%s is neither candidate nor shadow",
			ErrBadTransition, family, version)
	}

	// The verify gate: no stage advance for an artifact that cannot
	// prove it is the bytes its manifest describes.
	m, err := r.verifyLocked(family, version)
	if err != nil {
		return StageNone, fmt.Errorf("modelreg: promote %s/%s refused: %w", family, version, err)
	}
	if err := r.writePointer(family, to, Pointer{version, m.Artifact.CRC32C}); err != nil {
		return StageNone, fmt.Errorf("modelreg: promote %s/%s: %w", family, version, err)
	}
	if err := r.clearPointer(family, from); err != nil {
		return StageNone, fmt.Errorf("modelreg: promote %s/%s: %w", family, version, err)
	}
	r.met.promotions.Inc()
	r.log.Info("promoted", "family", family, "version", version, "to", to.String())
	return to, r.appendJournal(family, JournalEntry{r.now().Unix(), to.String(), version, m.Artifact.CRC32C})
}

// Rollback points serving back at a version the journal records as
// having served before. The target is re-verified first; the displaced
// serving version keeps its artifact (and can itself be rolled back to
// later — it served too).
func (r *Registry) Rollback(family, version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	hist, err := r.History(family)
	if err != nil {
		return err
	}
	served := false
	for _, e := range hist {
		if e.Version == version && (e.Event == "serving" || e.Event == "rollback") {
			served = true
			break
		}
	}
	if !served {
		return fmt.Errorf("%w: %s/%s", ErrNeverServed, family, version)
	}
	m, err := r.verifyLocked(family, version)
	if err != nil {
		return fmt.Errorf("modelreg: rollback %s/%s refused: %w", family, version, err)
	}
	if err := r.writePointer(family, StageServing, Pointer{version, m.Artifact.CRC32C}); err != nil {
		return fmt.Errorf("modelreg: rollback %s/%s: %w", family, version, err)
	}
	r.met.rollbacks.Inc()
	r.log.Info("rolled back", "family", family, "version", version)
	return r.appendJournal(family, JournalEntry{r.now().Unix(), "rollback", version, m.Artifact.CRC32C})
}

// --- resolution (the daemons' read path) ---

// Resolved is one stage lookup: the version, its artifact path, the
// verified-on-read header identity, and the manifest.
type Resolved struct {
	Family   string
	Version  string
	Stage    Stage
	Path     string
	Info     store.ModelInfo
	Manifest *Manifest
}

// Resolve looks up the version a stage pointer names. The pointer's
// recorded CRC must match both the manifest and the artifact header —
// a cheap torn-state check on every resolution, without the full
// payload re-hash Verify does.
func (r *Registry) Resolve(family string, st Stage) (*Resolved, error) {
	if err := checkFamily(family); err != nil {
		return nil, err
	}
	if st == StageNone {
		return nil, fmt.Errorf("modelreg: resolve %s: cannot resolve stage %q", family, st)
	}
	ptr, err := r.readPointer(family, st)
	if err != nil {
		return nil, err
	}
	m, err := r.Manifest(family, ptr.Version)
	if err != nil {
		return nil, err
	}
	path := r.ArtifactPath(family, ptr.Version)
	info, err := store.StatModel(path)
	if err != nil {
		return nil, fmt.Errorf("modelreg: resolve %s/%s: %w", family, ptr.Version, err)
	}
	if info.CRC32C != ptr.CRC32C || m.Artifact.CRC32C != ptr.CRC32C {
		return nil, fmt.Errorf("modelreg: resolve %s/%s: pointer crc %08x, manifest %08x, artifact %08x",
			family, ptr.Version, ptr.CRC32C, m.Artifact.CRC32C, info.CRC32C)
	}
	r.met.resolves.Inc()
	return &Resolved{
		Family: family, Version: ptr.Version, Stage: st,
		Path: path, Info: info, Manifest: m,
	}, nil
}

// ResolveServing resolves the family's serving pointer — what a daemon
// loads at boot and on SIGHUP.
func (r *Registry) ResolveServing(family string) (*Resolved, error) {
	return r.Resolve(family, StageServing)
}
