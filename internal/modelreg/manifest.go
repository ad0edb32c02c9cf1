package modelreg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/store"
)

// ErrManifestChecksum reports a manifest whose self-checksum does not
// match its content — the file was edited or damaged after publish.
var ErrManifestChecksum = errors.New("modelreg: manifest checksum mismatch")

// ArtifactInfo pins the manifest to one exact artifact: the WMDL
// header's identity fields plus the byte size. Verify cross-checks all
// of it against the artifact file, so a manifest cannot quietly describe
// a different model than the one sitting next to it.
type ArtifactInfo struct {
	FormatVersion uint16 `json:"format_version"`
	BlockFeatures uint64 `json:"block_features"`
	FieldFeatures uint64 `json:"field_features"`
	SizeBytes     uint64 `json:"size_bytes"`
	CRC32C        uint32 `json:"crc32c"`
}

// Provenance records where a version came from and how it scored — the
// audit trail that makes "which data trained the model answering this
// request" answerable months later.
type Provenance struct {
	// CorpusPath is the record store (or corpus file) the training data
	// came from.
	CorpusPath string `json:"corpus_path,omitempty"`
	// SeqFirst/SeqLast bound the store sequence range that fed training
	// (both zero when the source was not a store).
	SeqFirst uint64 `json:"seq_first,omitempty"`
	SeqLast  uint64 `json:"seq_last,omitempty"`
	// TrainRecords/HoldoutRecords count the labeled records used.
	TrainRecords   int `json:"train_records,omitempty"`
	HoldoutRecords int `json:"holdout_records,omitempty"`
	// Shadow*Accuracy are the candidate's held-out scores (token = 1 -
	// block line error, record = 1 - block doc error); Live*Accuracy are
	// the then-serving model's scores on the same holdout, so the
	// promotion margin is reconstructible from the manifest alone.
	ShadowTokenAccuracy  float64 `json:"shadow_token_accuracy,omitempty"`
	ShadowRecordAccuracy float64 `json:"shadow_record_accuracy,omitempty"`
	LiveTokenAccuracy    float64 `json:"live_token_accuracy,omitempty"`
	LiveRecordAccuracy   float64 `json:"live_record_accuracy,omitempty"`
	// Trainer names the code path that produced the artifact
	// ("whoisparse model publish", ...).
	Trainer string `json:"trainer,omitempty"`
	// Note is free-form operator context.
	Note string `json:"note,omitempty"`
}

// Manifest is the checksummed JSON document published next to every
// artifact. Immutable after publish, like the artifact itself.
type Manifest struct {
	Family  string `json:"family"`
	Version string `json:"version"`
	// Parent is the version this one was trained from ("" for roots).
	Parent string `json:"parent,omitempty"`
	// CreatedUnix is the publish time (seconds).
	CreatedUnix int64        `json:"created_unix"`
	Artifact    ArtifactInfo `json:"artifact"`
	Provenance  Provenance   `json:"provenance"`
	// SelfCRC32C is the CRC32C of this manifest's canonical JSON with
	// this field set to zero — the tamper seal Verify checks.
	SelfCRC32C uint32 `json:"self_crc32c"`
}

// seal computes the manifest's self-checksum: CRC32C over the canonical
// (struct-ordered, indented) JSON encoding with SelfCRC32C zeroed.
func (m *Manifest) seal() (uint32, error) {
	cp := *m
	cp.SelfCRC32C = 0
	data, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(data, store.Castagnoli), nil
}

// encode seals and serializes the manifest.
func (m *Manifest) encode() ([]byte, error) {
	crc, err := m.seal()
	if err != nil {
		return nil, err
	}
	m.SelfCRC32C = crc
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeManifest parses and checksum-verifies a manifest.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("modelreg: manifest: %w", err)
	}
	want, err := m.seal()
	if err != nil {
		return nil, fmt.Errorf("modelreg: manifest: %w", err)
	}
	if want != m.SelfCRC32C {
		return nil, fmt.Errorf("%w: recorded %08x, content %08x",
			ErrManifestChecksum, m.SelfCRC32C, want)
	}
	return &m, nil
}

// Manifest loads and checksum-verifies the manifest for (family,
// version).
func (r *Registry) Manifest(family, version string) (*Manifest, error) {
	data, err := os.ReadFile(r.ManifestPath(family, version))
	if err != nil {
		return nil, fmt.Errorf("modelreg: manifest %s/%s: %w", family, version, err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", family, version, err)
	}
	return m, nil
}
