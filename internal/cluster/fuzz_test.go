package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// fuzzWireSeeds are the payloads of one valid message of every request
// and response kind; the checked-in corpus under
// testdata/fuzz/FuzzWireDecode adds torn, corrupt and forged streams.
func fuzzWireSeeds() [][]byte {
	rec := &core.ParsedRecord{DomainName: "example.com", Registrar: "Example Registrar, Inc.", ModelVersion: "wmdl-deadbeef"}
	return [][]byte{
		encodeParseReq(nil, "example.com", "Domain Name: EXAMPLE.COM\n"),
		{opFetchModel},
		store.AppendString([]byte{opApplyModel}, []byte("WMDL artifact")),
		{opStatus},
		encodeRecordResp(nil, "example.com", rec),
		encodeErrorResp(nil, &OverloadedError{After: 1500 * time.Millisecond}),
		encodeErrorResp(nil, ErrNoModel),
		encodeErrorResp(nil, errors.New("disk on fire")),
		encodeStatusResp(nil, PeerStatus{ID: "a", Addr: "127.0.0.1:9", ModelVersion: "wmdl-1", Generation: 3, Ready: true, Members: []string{"a", "b"}}),
		store.AppendString([]byte{stOK}, []byte("WMDL artifact")),
		store.AppendString([]byte{stOK}, "wmdl-1"),
	}
}

// FuzzWireDecode feeds arbitrary bytes to everything that reads the
// network: the frame reader, as a stream of frames, and then each
// request and response decoder and the server's dispatch, on every
// payload it yields and on the raw bytes. None may panic or read past
// its input: decoders get slices whose capacity ends at their length,
// so an unchecked slice past the end panics instead of reading
// neighbouring memory. The server must answer every request with a
// response the client can decode.
func FuzzWireDecode(f *testing.F) {
	for _, p := range fuzzWireSeeds() {
		f.Add(store.AppendFrame(nil, p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		consumed := 0
		for {
			payload, n, err := store.ReadFrame(br, &buf, maxWireFrame)
			consumed += n
			if consumed > len(data) {
				t.Fatalf("frame reader consumed %d of %d bytes", consumed, len(data))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, store.ErrTornFrame) && !errors.Is(err, store.ErrBadChecksum) && !errors.Is(err, store.ErrFrameTooBig) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			decodeWire(t, append([]byte(nil), payload...))
		}
		decodeWire(t, data)
	})
}

// decodeWire runs every decoder over p, as a whole message and as the
// body behind its op or status byte.
func decodeWire(t *testing.T, p []byte) {
	p = p[:len(p):len(p)]
	for _, body := range [][]byte{p, p[min(1, len(p)):]} {
		if domain, text, err := decodeParseReq(body); err == nil && len(domain)+len(text) > len(body) {
			t.Fatalf("parse request decoded %d bytes of strings from %d", len(domain)+len(text), len(body))
		}
		_, _ = decodeRecordResp(body)
		_, _ = decodeStatusResp(body)
		_, _ = decodeBlob(body, "fuzz")
	}
	if body, err := decodeStatusByte(p); err == nil {
		_, _ = decodeRecordResp(body)
		_, _ = decodeStatusResp(body)
		_, _ = decodeBlob(body, "fuzz")
	}
	srv := &TCPServer{b: &fakeBackend{artifact: []byte("WMDL artifact")}}
	if _, err := decodeStatusByte(srv.dispatch(nil, p)); errors.Is(err, ErrBadMessage) {
		t.Fatalf("server answered %x with an undecodable response: %v", p, err)
	}
}
