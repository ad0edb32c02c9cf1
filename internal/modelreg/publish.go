package modelreg

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/store"
)

// ErrVersionExists reports a publish naming a version already present —
// versions are immutable, re-publishing is allocation of a new one.
var ErrVersionExists = errors.New("modelreg: version already published")

// PublishRequest describes one artifact entering the registry.
type PublishRequest struct {
	// Family receives the version; created on first publish.
	Family string
	// Version is the explicit semver to allocate; "" bumps the minor of
	// the family's newest version (1.0.0 for an empty family).
	Version string
	// Parent is the lineage pointer ("" for a root). Must name an
	// existing version when set.
	Parent string
	// Artifact holds the WMDL bytes; when nil, ArtifactPath is read
	// instead. The bytes are CRC-verified before anything is written.
	Artifact     []byte
	ArtifactPath string
	// Provenance is recorded verbatim in the manifest.
	Provenance Provenance
}

// Publish verifies the artifact end to end (magic, format version,
// streamed payload CRC32C) and writes it into the registry as an
// immutable version: artifact first, manifest second, each atomic and
// fsynced, version directory fsynced last — a crash at any point leaves
// either a complete version or an unreferenced partial directory that
// Verify reports and GC sweeps; never a version that resolves but does
// not verify. The new version carries no stage.
func (r *Registry) Publish(req PublishRequest) (*Manifest, error) {
	if err := checkFamily(req.Family); err != nil {
		return nil, err
	}
	data := req.Artifact
	if data == nil {
		if req.ArtifactPath == "" {
			return nil, fmt.Errorf("modelreg: publish %s: no artifact bytes or path", req.Family)
		}
		var err error
		data, err = os.ReadFile(req.ArtifactPath)
		if err != nil {
			return nil, fmt.Errorf("modelreg: publish %s: %w", req.Family, err)
		}
	}
	// Full integrity check before the registry accepts custody: a torn
	// or tampered source artifact must not become a published version.
	info, err := store.VerifyModelBytes(data)
	if err != nil {
		return nil, fmt.Errorf("modelreg: publish %s: artifact: %w", req.Family, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	version := req.Version
	if version == "" {
		version, err = r.nextVersionLocked(req.Family)
		if err != nil {
			return nil, err
		}
	} else if _, err := ParseVersion(version); err != nil {
		return nil, err
	}
	if req.Parent != "" {
		if _, err := os.Stat(r.ManifestPath(req.Family, req.Parent)); err != nil {
			return nil, fmt.Errorf("modelreg: publish %s/%s: parent %s not in registry",
				req.Family, version, req.Parent)
		}
	}

	vdir := r.versionDir(req.Family, version)
	if _, err := os.Stat(vdir); err == nil {
		return nil, fmt.Errorf("%w: %s/%s", ErrVersionExists, req.Family, version)
	}
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("modelreg: publish %s/%s: %w", req.Family, version, err)
	}

	m := &Manifest{
		Family:      req.Family,
		Version:     version,
		Parent:      req.Parent,
		CreatedUnix: r.now().Unix(),
		Artifact: ArtifactInfo{
			FormatVersion: info.FormatVersion,
			BlockFeatures: info.BlockFeatures,
			FieldFeatures: info.FieldFeatures,
			SizeBytes:     uint64(len(data)),
			CRC32C:        info.CRC32C,
		},
		Provenance: req.Provenance,
	}
	manifestBytes, err := m.encode()
	if err != nil {
		return nil, fmt.Errorf("modelreg: publish %s/%s: %w", req.Family, version, err)
	}
	if err := store.WriteFileSync(r.ArtifactPath(req.Family, version), data); err != nil {
		return nil, fmt.Errorf("modelreg: publish %s/%s: artifact: %w", req.Family, version, err)
	}
	if err := store.WriteFileSync(r.ManifestPath(req.Family, version), manifestBytes); err != nil {
		return nil, fmt.Errorf("modelreg: publish %s/%s: manifest: %w", req.Family, version, err)
	}
	if err := store.SyncDir(vdir); err != nil {
		return nil, fmt.Errorf("modelreg: publish %s/%s: %w", req.Family, version, err)
	}
	r.met.publishes.Inc()
	r.log.Info("published", "family", req.Family, "version", version,
		"crc32c", fmt.Sprintf("%08x", info.CRC32C), "parent", req.Parent)
	return m, nil
}

// nextVersionLocked allocates the next version for a family: minor bump
// of the newest published version, 1.0.0 when the family is empty.
// Callers hold r.mu.
func (r *Registry) nextVersionLocked(family string) (string, error) {
	vers, err := r.Versions(family)
	if err != nil {
		return "", err
	}
	if len(vers) == 0 {
		return Version{1, 0, 0}.String(), nil
	}
	latest, err := ParseVersion(vers[len(vers)-1])
	if err != nil {
		return "", err
	}
	return latest.BumpMinor().String(), nil
}
