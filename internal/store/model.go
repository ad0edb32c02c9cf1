package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// Model artifact container. A trained parser is the expensive output of
// the whole labeling + optimization pipeline; persisting it behind a
// magic header, an explicit format version, the feature-space dimensions
// of both CRF levels, and a CRC turns "the file loaded" into "the file
// is the model you trained". The payload is the parser's own
// serialization (core.Parser.WriteTo).
//
//	offset  size  field
//	0       4     magic "WMDL"
//	4       2     format version (LE)
//	6       8     first-level feature count (LE)
//	14      8     second-level feature count (LE; 0 = no field model)
//	22      4     CRC32C of payload (LE)
//	26      8     payload length (LE)
//	34      n     payload (gob, core.Parser.WriteTo)
var modelMagic = [4]byte{'W', 'M', 'D', 'L'}

const (
	modelVersion   = 1
	modelHeaderLen = 34
)

// Model artifact errors, distinguishable so callers can report "not a
// model file" vs "damaged model file" vs "model from a different
// format era".
var (
	ErrNotModel        = errors.New("store: not a model artifact")
	ErrModelVersion    = errors.New("store: unsupported model artifact version")
	ErrModelChecksum   = errors.New("store: model artifact checksum mismatch")
	ErrModelDimensions = errors.New("store: model feature dimensions disagree with header")
)

// ModelInfo is the identity a WMDL envelope gives a trained model: the
// artifact format version, both CRF feature-space dimensions, and the
// payload checksum. The CRC doubles as a cheap content fingerprint — two
// artifacts with equal CRC and dimensions are the same trained weights
// for lifecycle purposes (hot reload logging, drift segmentation,
// stamping crawled records with the model that parsed them).
type ModelInfo struct {
	FormatVersion uint16
	BlockFeatures uint64
	FieldFeatures uint64
	PayloadBytes  uint64
	CRC32C        uint32
}

// String renders the identity the way daemons log it, e.g.
// "wmdl v1 crc32c=9a1b2c3d block=104729 field=39916".
func (mi ModelInfo) String() string {
	return fmt.Sprintf("wmdl v%d crc32c=%08x block=%d field=%d",
		mi.FormatVersion, mi.CRC32C, mi.BlockFeatures, mi.FieldFeatures)
}

// ID is the artifact's identity as stamped into every record a model
// parses: "wmdl-<crc32c>". It derives from the artifact's bytes alone,
// so every process that loads the same file stamps the same string.
func (mi ModelInfo) ID() string { return fmt.Sprintf("wmdl-%08x", mi.CRC32C) }

// IsZero reports whether the info carries no artifact identity (the
// model never hit disk).
func (mi ModelInfo) IsZero() bool { return mi == ModelInfo{} }

// parseModelHeader validates a WMDL header and extracts the identity.
func parseModelHeader(hdr []byte) (ModelInfo, error) {
	if len(hdr) < modelHeaderLen {
		return ModelInfo{}, fmt.Errorf("%w: short header", ErrNotModel)
	}
	if [4]byte(hdr[:4]) != modelMagic {
		return ModelInfo{}, ErrNotModel
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != modelVersion {
		return ModelInfo{}, fmt.Errorf("%w: %d (want %d)", ErrModelVersion, v, modelVersion)
	}
	return ModelInfo{
		FormatVersion: binary.LittleEndian.Uint16(hdr[4:]),
		BlockFeatures: binary.LittleEndian.Uint64(hdr[6:]),
		FieldFeatures: binary.LittleEndian.Uint64(hdr[14:]),
		CRC32C:        binary.LittleEndian.Uint32(hdr[22:]),
		PayloadBytes:  binary.LittleEndian.Uint64(hdr[26:]),
	}, nil
}

// StatModel reads only the WMDL header of the artifact at path and
// returns its identity, without decoding (or even reading) the payload.
// The registry uses it as a cheap torn-state check on every resolution;
// a daemon's identity comes from LoadModel, which reads the header and
// the weights together.
func StatModel(path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("store: stat model: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, modelHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return ModelInfo{}, fmt.Errorf("%w: short header", ErrNotModel)
	}
	return parseModelHeader(hdr)
}

// SaveModel writes the trained parser to path in the versioned artifact
// format through WriteFileSync, so a crash never leaves a torn model
// where a good one stood and concurrent saves to one path never collide,
// and returns the identity of what it wrote.
func SaveModel(p *core.Parser, path string) (ModelInfo, error) {
	// The header is filled in place once the payload behind it is known.
	var file bytes.Buffer
	file.Write(make([]byte, modelHeaderLen))
	if _, err := p.WriteTo(&file); err != nil {
		return ModelInfo{}, fmt.Errorf("store: save model: %w", err)
	}
	data := file.Bytes()
	payload := data[modelHeaderLen:]
	info := ModelInfo{
		FormatVersion: modelVersion,
		BlockFeatures: uint64(p.BlockModel().NumFeatures()),
		PayloadBytes:  uint64(len(payload)),
		CRC32C:        crc32.Checksum(payload, Castagnoli),
	}
	if p.FieldModel() != nil {
		info.FieldFeatures = uint64(p.FieldModel().NumFeatures())
	}

	hdr := data[:modelHeaderLen]
	copy(hdr, modelMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:], info.FormatVersion)
	binary.LittleEndian.PutUint64(hdr[6:], info.BlockFeatures)
	binary.LittleEndian.PutUint64(hdr[14:], info.FieldFeatures)
	binary.LittleEndian.PutUint32(hdr[22:], info.CRC32C)
	binary.LittleEndian.PutUint64(hdr[26:], info.PayloadBytes)

	if err := WriteFileSync(path, data); err != nil {
		return ModelInfo{}, fmt.Errorf("store: save model: %w", err)
	}
	return info, nil
}

// WriteFileSync writes data to path durably and atomically: a uniquely
// named temp file in the same directory, fsync, rename, fsync the
// directory. A crash leaves either the old file or the new one, never a
// torn mix, and concurrent writers to one path each rename a whole file.
func WriteFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	werr := tmp.Chmod(0o644)
	if werr == nil {
		_, werr = tmp.Write(data)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a rename or unlink within it is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadModel reads a model artifact written by SaveModel, verifying the
// magic, version, checksum, and that the decoded CRF feature spaces
// match the dimensions recorded at save time. The returned parser is
// ready to Parse or to warm-start a Retrain; the returned identity is
// the header those weights were verified against, so a caller that
// stamps it can never pair one artifact's CRC with another's weights.
func LoadModel(path string) (*core.Parser, ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ModelInfo{}, fmt.Errorf("store: load model: %w", err)
	}
	defer f.Close()
	return ReadModel(f)
}

// ReadModel is LoadModel over a stream. Header validation (magic,
// format version) is the same parseModelHeader every other consumer —
// StatModel, VerifyModel, the registry — runs, so "what counts as a
// WMDL" cannot drift between the file load path and the registry. A
// bare parser gob (no envelope) is rejected with ErrNotModel.
func ReadModel(r io.Reader) (*core.Parser, ModelInfo, error) {
	hdr := make([]byte, modelHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, ModelInfo{}, fmt.Errorf("%w: short header", ErrNotModel)
	}
	info, err := parseModelHeader(hdr)
	if err != nil {
		return nil, ModelInfo{}, err
	}
	const maxModelBytes = 1 << 31
	if info.PayloadBytes > maxModelBytes {
		return nil, ModelInfo{}, fmt.Errorf("%w: payload length %d", ErrNotModel, info.PayloadBytes)
	}
	payload := make([]byte, info.PayloadBytes)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ModelInfo{}, fmt.Errorf("%w: short payload", ErrModelChecksum)
	}
	if crc32.Checksum(payload, Castagnoli) != info.CRC32C {
		return nil, ModelInfo{}, ErrModelChecksum
	}
	p, err := core.Read(bytes.NewReader(payload))
	if err != nil {
		return nil, ModelInfo{}, fmt.Errorf("store: load model: %w", err)
	}
	if got := uint64(p.BlockModel().NumFeatures()); got != info.BlockFeatures {
		return nil, ModelInfo{}, fmt.Errorf("%w: first level %d vs %d", ErrModelDimensions, got, info.BlockFeatures)
	}
	var gotField uint64
	if p.FieldModel() != nil {
		gotField = uint64(p.FieldModel().NumFeatures())
	}
	if gotField != info.FieldFeatures {
		return nil, ModelInfo{}, fmt.Errorf("%w: second level %d vs %d", ErrModelDimensions, gotField, info.FieldFeatures)
	}
	return p, info, nil
}

// VerifyModel re-reads the artifact at path and confirms the payload is
// exactly what the header promises — magic, format version, payload
// length, and a streamed CRC32C recomputation — without decoding the
// model (no gob, no allocation proportional to feature count). This is
// the integrity check the model registry runs before any promotion and
// `whoisparse model verify` runs offline; LoadModel additionally
// verifies the decoded feature dimensions, which VerifyModel's header
// already pins.
func VerifyModel(path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("store: verify model: %w", err)
	}
	defer f.Close()
	return verifyModelStream(f)
}

// VerifyModelBytes is VerifyModel over an in-memory artifact — the
// registry publish path and the cluster distribution path both verify
// bytes before anything is written or pushed.
func VerifyModelBytes(data []byte) (ModelInfo, error) {
	return verifyModelStream(bytes.NewReader(data))
}

// verifyModelStream validates header-vs-payload integrity: the payload
// must be present in full, match the recorded CRC32C, and be followed
// by nothing (trailing bytes mean the file is not the artifact the
// header describes).
func verifyModelStream(r io.Reader) (ModelInfo, error) {
	hdr := make([]byte, modelHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return ModelInfo{}, fmt.Errorf("%w: short header", ErrNotModel)
	}
	info, err := parseModelHeader(hdr)
	if err != nil {
		return ModelInfo{}, err
	}
	h := crc32.New(Castagnoli)
	n, err := io.Copy(h, r)
	if err != nil {
		return info, fmt.Errorf("store: verify model: %w", err)
	}
	if uint64(n) < info.PayloadBytes {
		return info, fmt.Errorf("%w: payload %d bytes, header promises %d", ErrModelChecksum, n, info.PayloadBytes)
	}
	if uint64(n) > info.PayloadBytes {
		return info, fmt.Errorf("%w: %d trailing bytes after payload", ErrModelChecksum, uint64(n)-info.PayloadBytes)
	}
	if h.Sum32() != info.CRC32C {
		return info, ErrModelChecksum
	}
	return info, nil
}
