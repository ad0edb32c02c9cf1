package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// The shard protocol frames its messages with the store's envelope;
// these tests pin that envelope at the wire's size limit.

func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	payloads := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc123"), 1000),
	}
	for _, p := range payloads {
		wire = store.AppendFrame(wire, p)
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	var scratch []byte
	for i, want := range payloads {
		got, _, err := store.ReadFrame(r, &scratch, maxWireFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := store.ReadFrame(r, &scratch, maxWireFrame); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func readWireFrame(b []byte) error {
	var scratch []byte
	_, _, err := store.ReadFrame(bufio.NewReader(bytes.NewReader(b)), &scratch, maxWireFrame)
	return err
}

func TestFrameCorruptCRC(t *testing.T) {
	b := store.AppendFrame(nil, []byte("hello wire"))
	b[len(b)-1] ^= 0xff // flip a CRC byte
	if err := readWireFrame(b); !errors.Is(err, store.ErrBadChecksum) {
		t.Fatalf("err = %v, want store.ErrBadChecksum", err)
	}
	// Flip a payload byte instead; same detection.
	b = store.AppendFrame(nil, []byte("hello wire"))
	b[2] ^= 0x01
	if err := readWireFrame(b); !errors.Is(err, store.ErrBadChecksum) {
		t.Fatalf("err = %v, want store.ErrBadChecksum", err)
	}
}

func TestFrameTorn(t *testing.T) {
	b := store.AppendFrame(nil, []byte("truncate me please"))
	for _, cut := range []int{1, len(b) / 2, len(b) - 1} {
		if err := readWireFrame(b[:cut]); !errors.Is(err, store.ErrTornFrame) {
			t.Fatalf("cut at %d: err = %v, want store.ErrTornFrame", cut, err)
		}
	}
}

func TestFrameTooBig(t *testing.T) {
	hdr := binary.AppendUvarint(nil, maxWireFrame+1)
	if err := readWireFrame(hdr); !errors.Is(err, store.ErrFrameTooBig) {
		t.Fatalf("err = %v, want store.ErrFrameTooBig", err)
	}
	// A frame over the record log's 16 MiB limit is still a legal wire
	// frame (model artifacts are large): with its body missing it is
	// torn, not too big.
	hdr = binary.AppendUvarint(nil, 16<<20+1)
	if err := readWireFrame(hdr); !errors.Is(err, store.ErrTornFrame) {
		t.Fatalf("err = %v, want store.ErrTornFrame", err)
	}
}

func TestParseReqRoundTrip(t *testing.T) {
	body := encodeParseReq(nil, "example.com", "Domain Name: EXAMPLE.COM\n")
	if body[0] != opParse {
		t.Fatalf("op byte = %d", body[0])
	}
	domain, text, err := decodeParseReq(body[1:])
	if err != nil {
		t.Fatal(err)
	}
	if domain != "example.com" || text != "Domain Name: EXAMPLE.COM\n" {
		t.Fatalf("round trip mismatch: %q / %q", domain, text)
	}
	// Trailing garbage must be rejected, not silently ignored.
	if _, _, err := decodeParseReq(append(body[1:], 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, _, err := decodeParseReq(body[1 : len(body)-1]); err == nil {
		t.Fatal("truncated request accepted")
	}
}

func TestRecordRespRoundTrip(t *testing.T) {
	rec := &core.ParsedRecord{
		DomainName:   "example.com",
		Registrar:    "Example Registrar, Inc.",
		CreatedDate:  "1999-07-01",
		ModelVersion: "wmdl-deadbeef",
	}
	resp := encodeRecordResp(nil, "example.com", rec)
	body, err := decodeStatusByte(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecordResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.DomainName != rec.DomainName || got.Registrar != rec.Registrar ||
		got.CreatedDate != rec.CreatedDate || got.ModelVersion != rec.ModelVersion {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestErrorRespMapping(t *testing.T) {
	// Overload carries its Retry-After hint across the wire.
	resp := encodeErrorResp(nil, &OverloadedError{After: 1500 * time.Millisecond})
	_, err := decodeStatusByte(resp)
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want OverloadedError", err)
	}
	if ov.After != 1500*time.Millisecond {
		t.Fatalf("After = %s, want 1.5s", ov.After)
	}
	if !errors.Is(err, ErrPeerOverloaded) {
		t.Fatal("OverloadedError does not match ErrPeerOverloaded")
	}

	// ErrNoModel keeps its identity.
	resp = encodeErrorResp(nil, fmt.Errorf("wrapped: %w", ErrNoModel))
	if _, err := decodeStatusByte(resp); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}

	// Anything else becomes an ErrRemote with the message preserved.
	resp = encodeErrorResp(nil, errors.New("disk on fire"))
	_, err = decodeStatusByte(resp)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if want := "disk on fire"; err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("message lost: %v", err)
	}
}

func TestDecodeStatusByteMalformed(t *testing.T) {
	if _, err := decodeStatusByte(nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty response: err = %v, want ErrBadMessage", err)
	}
	if _, err := decodeStatusByte([]byte{99}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("unknown status: err = %v, want ErrBadMessage", err)
	}
}

func TestStatusRespRoundTrip(t *testing.T) {
	want := PeerStatus{
		ID:           "node-a",
		Addr:         "127.0.0.1:9999",
		ModelVersion: "m3-0a0b0c0d",
		Generation:   17,
		Ready:        true,
		Members:      []string{"node-a", "node-b", "node-c"},
	}
	resp := encodeStatusResp(nil, want)
	body, err := decodeStatusByte(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStatusResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Addr != want.Addr || got.ModelVersion != want.ModelVersion ||
		got.Generation != want.Generation || got.Ready != want.Ready {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.Members) != 3 || got.Members[0] != "node-a" || got.Members[2] != "node-c" {
		t.Fatalf("members mismatch: %v", got.Members)
	}
	if _, err := decodeStatusResp(body[:len(body)-2]); err == nil {
		t.Fatal("truncated status accepted")
	}
}

// TestWireCRCMatchesStore pins the wire checksum to Castagnoli, the
// polynomial of the store's one CRC32C table, by the standard check
// value of "123456789".
func TestWireCRCMatchesStore(t *testing.T) {
	frame := store.AppendFrame(nil, []byte("123456789"))
	if got := binary.LittleEndian.Uint32(frame[len(frame)-4:]); got != 0xe3069283 {
		t.Fatalf("wire CRC is not CRC32C: %08x != e3069283", got)
	}
}
