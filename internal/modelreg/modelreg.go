// Package modelreg is the versioned on-disk model registry: every WMDL
// the pipeline ever trains gets a durable identity — a family, a semver,
// a checksummed manifest recording where it came from and how it scored
// — and promotion becomes an auditable state-machine move instead of a
// file overwrite.
//
// Without it, promoting a retrained model means writing it over the
// serving WMDL, and the previous model, its training provenance, and any
// chance of rollback are gone. The registry borrows the artifact discipline of
// package systems (immutable content-addressed artifacts, an
// inspect/verify CLI) and schema registries (immutable IDs, semver
// families, per-environment mutability): artifacts are immutable once
// published, only the stage pointers move.
//
// On-disk layout (one directory per family):
//
//	<root>/<family>/versions/<semver>/model.wmdl     immutable artifact
//	<root>/<family>/versions/<semver>/manifest.json  checksummed manifest
//	<root>/<family>/candidate.ptr                    stage pointers: one
//	<root>/<family>/shadow.ptr                       line, "version crc",
//	<root>/<family>/serving.ptr                      moved by O(1) renames
//	<root>/<family>/history.log                      append-only journal
//
// The promotion state machine:
//
//	publish ──▶ candidate ──▶ shadow ──▶ serving
//	                                        │
//	              rollback ◀────────────────┘ (to any prior serving
//	                                           version, journal-checked)
//
// Every arrow into shadow or serving runs Verify first — a corrupted
// artifact or manifest refuses to promote, with the old serving version
// untouched. Families are independent: `default/` serves the general
// model while `tld-com/` or `registrar-godaddy/` hold specialized
// lineages served side by side (ROADMAP items 1 and 4).
//
// All Registry methods are safe for concurrent use within one process;
// cross-process writers should coordinate externally (the daemons only
// read, the CLI writes).
package modelreg

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Filenames inside a family directory. Stage pointers are files so a
// stage move is a single rename — atomic on POSIX, O(1) regardless of
// artifact size.
const (
	versionsDir  = "versions"
	artifactName = "model.wmdl"
	manifestName = "manifest.json"
	historyName  = "history.log"
	ptrSuffix    = ".ptr"
)

// familyRe constrains family names to path-safe slugs: "default",
// "tld-com", "registrar-godaddy".
var familyRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// DefaultFamily is the family the daemons serve when none is named.
const DefaultFamily = "default"

// Options configures a Registry. The zero value works: private metrics,
// discarded logs, wall-clock time.
type Options struct {
	// Metrics receives modelreg.* counters and gauges; nil means a
	// private registry.
	Metrics *obs.Registry
	// Log receives registry events (publishes, promotions, GC); nil
	// discards them.
	Log *slog.Logger
	// Now is the clock manifests and journal entries are stamped with;
	// nil means time.Now. A test seam — Publish output becomes
	// deterministic with a fixed clock.
	Now func() time.Time
}

type metrics struct {
	publishes   *obs.Counter
	promotions  *obs.Counter
	rollbacks   *obs.Counter
	verifyFails *obs.Counter
	gcRemoved   *obs.Counter
	resolves    *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		publishes:   reg.Counter("modelreg.publishes"),
		promotions:  reg.Counter("modelreg.promotions"),
		rollbacks:   reg.Counter("modelreg.rollbacks"),
		verifyFails: reg.Counter("modelreg.verify.failures"),
		gcRemoved:   reg.Counter("modelreg.gc.removed"),
		resolves:    reg.Counter("modelreg.resolves"),
	}
}

// Registry is a handle on one registry root directory.
type Registry struct {
	root string
	log  *slog.Logger
	now  func() time.Time
	met  metrics

	// mu serializes mutations (publish, stage moves, GC) so two
	// in-process writers cannot interleave a read-modify-write of the
	// same pointer or version allocation.
	mu sync.Mutex
}

// Open opens (creating if needed) the registry rooted at dir.
func Open(dir string, opts Options) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelreg: open: %w", err)
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.Log == nil {
		opts.Log = obs.NewLogger("modelreg", io.Discard)
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	r := &Registry{
		root: dir,
		log:  opts.Log,
		now:  opts.Now,
		met:  newMetrics(opts.Metrics),
	}
	opts.Metrics.GaugeFunc("modelreg.families", func() float64 {
		fams, err := r.Families()
		if err != nil {
			return 0
		}
		return float64(len(fams))
	})
	opts.Metrics.GaugeFunc("modelreg.versions", func() float64 {
		n := 0
		fams, err := r.Families()
		if err != nil {
			return 0
		}
		for _, f := range fams {
			vs, err := r.Versions(f)
			if err == nil {
				n += len(vs)
			}
		}
		return float64(n)
	})
	return r, nil
}

func (r *Registry) familyDir(family string) string {
	return filepath.Join(r.root, family)
}

func (r *Registry) versionDir(family, version string) string {
	return filepath.Join(r.root, family, versionsDir, version)
}

// ArtifactPath returns the immutable artifact path for (family,
// version); the file may not exist — callers resolve through stages or
// listings first.
func (r *Registry) ArtifactPath(family, version string) string {
	return filepath.Join(r.versionDir(family, version), artifactName)
}

// ManifestPath returns the manifest path for (family, version).
func (r *Registry) ManifestPath(family, version string) string {
	return filepath.Join(r.versionDir(family, version), manifestName)
}

func checkFamily(family string) error {
	if !familyRe.MatchString(family) {
		return fmt.Errorf("modelreg: bad family name %q (want a lowercase slug like %q or %q)",
			family, "default", "tld-com")
	}
	return nil
}

// Families lists the family directories, sorted.
func (r *Registry) Families() ([]string, error) {
	ents, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("modelreg: families: %w", err)
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() && familyRe.MatchString(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Versions lists a family's published versions in ascending semver
// order. A family with no versions (or no directory yet) lists empty.
func (r *Registry) Versions(family string) ([]string, error) {
	if err := checkFamily(family); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(filepath.Join(r.familyDir(family), versionsDir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("modelreg: versions %s: %w", family, err)
	}
	vers := make([]Version, 0, len(ents))
	for _, e := range ents {
		v, perr := ParseVersion(e.Name())
		if perr != nil || !e.IsDir() {
			continue // foreign debris is invisible, not fatal
		}
		vers = append(vers, v)
	}
	sort.Slice(vers, func(i, j int) bool { return vers[i].Less(vers[j]) })
	out := make([]string, len(vers))
	for i, v := range vers {
		out[i] = v.String()
	}
	return out, nil
}

// --- listings (the `model list` / GET /admin/models view) ---

// VersionEntry is one version's row in a family listing.
type VersionEntry struct {
	Version string `json:"version"`
	// Stage is the stage pointer currently naming this version
	// ("candidate", "shadow", "serving", or "" for unstaged).
	Stage string `json:"stage,omitempty"`
	// Parent is the version this one was trained from.
	Parent string `json:"parent,omitempty"`
	// CRC32C is the artifact checksum, %08x.
	CRC32C string `json:"crc32c"`
	// CreatedUnix is the manifest's publish timestamp.
	CreatedUnix int64 `json:"created_unix"`
	// ShadowTokenAccuracy/ShadowRecordAccuracy are the candidate's
	// shadow-eval scores recorded at publish (0 when never evaluated).
	ShadowTokenAccuracy  float64 `json:"shadow_token_accuracy,omitempty"`
	ShadowRecordAccuracy float64 `json:"shadow_record_accuracy,omitempty"`
}

// FamilyListing is one family's stages and versions.
type FamilyListing struct {
	Family    string         `json:"family"`
	Serving   string         `json:"serving,omitempty"`
	Shadow    string         `json:"shadow,omitempty"`
	Candidate string         `json:"candidate,omitempty"`
	Versions  []VersionEntry `json:"versions"`
}

// ListFamily assembles the listing for one family.
func (r *Registry) ListFamily(family string) (*FamilyListing, error) {
	vers, err := r.Versions(family)
	if err != nil {
		return nil, err
	}
	l := &FamilyListing{Family: family}
	stages := map[string]string{}
	for _, st := range []Stage{StageCandidate, StageShadow, StageServing} {
		if ptr, err := r.readPointer(family, st); err == nil {
			stages[ptr.Version] = st.String()
			switch st {
			case StageCandidate:
				l.Candidate = ptr.Version
			case StageShadow:
				l.Shadow = ptr.Version
			case StageServing:
				l.Serving = ptr.Version
			}
		}
	}
	for _, v := range vers {
		e := VersionEntry{Version: v, Stage: stages[v]}
		if m, err := r.Manifest(family, v); err == nil {
			e.Parent = m.Parent
			e.CRC32C = fmt.Sprintf("%08x", m.Artifact.CRC32C)
			e.CreatedUnix = m.CreatedUnix
			e.ShadowTokenAccuracy = m.Provenance.ShadowTokenAccuracy
			e.ShadowRecordAccuracy = m.Provenance.ShadowRecordAccuracy
		}
		l.Versions = append(l.Versions, e)
	}
	return l, nil
}

// List assembles the listing for every family.
func (r *Registry) List() ([]*FamilyListing, error) {
	fams, err := r.Families()
	if err != nil {
		return nil, err
	}
	out := make([]*FamilyListing, 0, len(fams))
	for _, f := range fams {
		l, err := r.ListFamily(f)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}
