package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// Wire format (DESIGN.md §5g). The shard protocol has no codec of its
// own: every message — request or response — travels in the envelope
// internal/store frames its record log with,
//
//	frame := uvarint(len(payload)) | payload | crc32c(payload) LE32
//
// written by store.AppendFrame and read by store.ReadFrame, and its
// fields are written with store.AppendString and read with store.Cursor.
// A request payload is an op byte followed by op-specific fields
// (uvarint-length-prefixed strings/bytes); a response payload is a
// status byte followed by status-specific fields. Parsed records use the
// store's record codec (store.EncodeRecord/DecodeRecord), so the shard
// protocol and the persistence layer cannot drift apart on what a
// record is.
//
//	opParse      : domain string | text string
//	opFetchModel : (empty)
//	opApplyModel : artifact bytes
//	opStatus     : (empty)
//
//	stOK         : op-specific body (record payload / artifact bytes /
//	               version string / status fields)
//	stError      : message string
//	stOverloaded : retry-after millis uvarint
//	stNoModel    : (empty)

const (
	opParse      = 1
	opFetchModel = 2
	opApplyModel = 3
	opStatus     = 4

	stOK         = 0
	stError      = 1
	stOverloaded = 2
	stNoModel    = 3
)

// maxWireFrame bounds one protocol frame. Model artifacts are the
// largest payloads (tens of MB for a full-corpus model); parse
// requests/responses are KBs.
const maxWireFrame = 64 << 20

// Protocol errors. Frame errors are the store's: store.ErrTornFrame,
// store.ErrBadChecksum and store.ErrFrameTooBig.
var (
	ErrBadMessage = errors.New("cluster: malformed protocol message")
	ErrRemote     = errors.New("cluster: remote error")
	ErrUnknownOp  = errors.New("cluster: unknown protocol op")
)

// Request encoders/decoders.

func encodeParseReq(buf []byte, domain, text string) []byte {
	buf = append(buf[:0], opParse)
	buf = store.AppendString(buf, domain)
	return store.AppendString(buf, text)
}

func decodeParseReq(body []byte) (domain, text string, err error) {
	r := store.NewCursor(body)
	domain = r.Str()
	text = r.Str()
	if !r.Done() {
		return "", "", fmt.Errorf("%w: parse request", ErrBadMessage)
	}
	return domain, text, nil
}

// decodeBlob reads a body that is exactly one length-prefixed byte
// string: the apply request's artifact, the fetch response's artifact
// and the apply response's version. The result aliases body.
func decodeBlob(body []byte, what string) ([]byte, error) {
	r := store.NewCursor(body)
	b := r.Bytes()
	if !r.Done() {
		return nil, fmt.Errorf("%w: %s", ErrBadMessage, what)
	}
	return b, nil
}

// Response encoders/decoders.

// encodeRecordResp wraps a parsed record as an stOK response, reusing
// the store record codec for the record body.
func encodeRecordResp(buf []byte, domain string, rec *core.ParsedRecord) []byte {
	buf = append(buf[:0], stOK)
	body := store.EncodeRecord(nil, &store.Record{Domain: domain, Parsed: rec})
	return store.AppendString(buf, body)
}

func decodeRecordResp(body []byte) (*core.ParsedRecord, error) {
	r := store.NewCursor(body)
	payload := r.Bytes()
	if !r.Done() {
		return nil, fmt.Errorf("%w: record response", ErrBadMessage)
	}
	rec, err := store.DecodeRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if rec.Parsed == nil {
		return nil, fmt.Errorf("%w: record response without parse", ErrBadMessage)
	}
	return rec.Parsed, nil
}

// encodeErrorResp maps an error into a status frame: overload carries
// its Retry-After hint, ErrNoModel its own status, anything else a
// message string.
func encodeErrorResp(buf []byte, err error) []byte {
	var ov *OverloadedError
	switch {
	case errors.As(err, &ov):
		buf = append(buf[:0], stOverloaded)
		return binary.AppendUvarint(buf, uint64(ov.After.Milliseconds()))
	case errors.Is(err, ErrNoModel):
		return append(buf[:0], stNoModel)
	default:
		buf = append(buf[:0], stError)
		return store.AppendString(buf, err.Error())
	}
}

// decodeStatusByte interprets a response's status byte, returning the
// remaining body for stOK and the decoded error otherwise.
func decodeStatusByte(payload []byte) ([]byte, error) {
	r := store.NewCursor(payload)
	switch st := r.Byte(); {
	case r.Bad():
		return nil, fmt.Errorf("%w: empty response", ErrBadMessage)
	case st == stOK:
		return payload[1:], nil
	case st == stOverloaded:
		ms := r.Uvarint()
		if r.Bad() {
			return nil, fmt.Errorf("%w: overload response", ErrBadMessage)
		}
		return nil, &OverloadedError{After: time.Duration(ms) * time.Millisecond}
	case st == stNoModel:
		return nil, ErrNoModel
	case st == stError:
		msg := r.Str()
		if r.Bad() {
			return nil, fmt.Errorf("%w: error response", ErrBadMessage)
		}
		return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
	default:
		return nil, fmt.Errorf("%w: status %d", ErrBadMessage, st)
	}
}

// Status op body.

func encodeStatusResp(buf []byte, ps PeerStatus) []byte {
	buf = append(buf[:0], stOK)
	buf = store.AppendString(buf, ps.ID)
	buf = store.AppendString(buf, ps.Addr)
	buf = store.AppendString(buf, ps.ModelVersion)
	buf = binary.AppendUvarint(buf, ps.Generation)
	ready := byte(0)
	if ps.Ready {
		ready = 1
	}
	buf = append(buf, ready)
	buf = binary.AppendUvarint(buf, uint64(len(ps.Members)))
	for _, m := range ps.Members {
		buf = store.AppendString(buf, m)
	}
	return buf
}

func decodeStatusResp(body []byte) (PeerStatus, error) {
	r := store.NewCursor(body)
	var ps PeerStatus
	ps.ID = r.Str()
	ps.Addr = r.Str()
	ps.ModelVersion = r.Str()
	ps.Generation = r.Uvarint()
	ps.Ready = r.Byte() == 1
	n := r.Uvarint()
	if r.Bad() || n > uint64(len(body)) {
		return PeerStatus{}, fmt.Errorf("%w: status response", ErrBadMessage)
	}
	ps.Members = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		ps.Members = append(ps.Members, r.Str())
	}
	if !r.Done() {
		return PeerStatus{}, fmt.Errorf("%w: status response", ErrBadMessage)
	}
	return ps, nil
}
