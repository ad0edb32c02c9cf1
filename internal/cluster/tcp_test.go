package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
)

// fakeBackend is a scriptable Backend for transport tests.
type fakeBackend struct {
	mu       sync.Mutex
	parseErr error
	applied  [][]byte
	artifact []byte
	parses   int
}

func (f *fakeBackend) HandleParse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parses++
	if f.parseErr != nil {
		return nil, f.parseErr
	}
	return &core.ParsedRecord{DomainName: domain, Registrar: "fake", ModelVersion: "v-fake"}, nil
}

func (f *fakeBackend) ModelArtifact() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.artifact == nil {
		return nil, ErrNoModel
	}
	return f.artifact, nil
}

func (f *fakeBackend) ApplyModel(artifact []byte) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = append(f.applied, artifact)
	return "v-applied", nil
}

func (f *fakeBackend) Status() PeerStatus {
	return PeerStatus{ID: "fake-node", Generation: 7, Ready: true, Members: []string{"fake-node"}}
}

func startTCP(t *testing.T, b Backend) (*TCPServer, *TCPClient) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, b, nil)
	t.Cleanup(func() { srv.Close() })
	cli := DialTCP(srv.Addr())
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestTCPParseRoundTrip(t *testing.T) {
	fb := &fakeBackend{}
	_, cli := startTCP(t, fb)
	ctx := context.Background()
	rec, err := cli.Parse(ctx, "example.com", "Domain Name: EXAMPLE.COM\n")
	if err != nil {
		t.Fatal(err)
	}
	if rec.DomainName != "example.com" || rec.Registrar != "fake" || rec.ModelVersion != "v-fake" {
		t.Fatalf("record mangled in transit: %+v", rec)
	}
	// Connection reuse: a second call on the pooled connection.
	if _, err := cli.Parse(ctx, "other.com", "text"); err != nil {
		t.Fatal(err)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.parses != 2 {
		t.Fatalf("backend saw %d parses, want 2", fb.parses)
	}
}

func TestTCPErrorMapping(t *testing.T) {
	fb := &fakeBackend{parseErr: &OverloadedError{After: 250 * time.Millisecond}}
	_, cli := startTCP(t, fb)
	ctx := context.Background()

	_, err := cli.Parse(ctx, "example.com", "text")
	var ov *OverloadedError
	if !errors.As(err, &ov) || ov.After != 250*time.Millisecond {
		t.Fatalf("overload did not survive the wire: %v", err)
	}

	if _, err := cli.FetchModel(ctx); !errors.Is(err, ErrNoModel) {
		t.Fatalf("FetchModel err = %v, want ErrNoModel", err)
	}

	fb.mu.Lock()
	fb.parseErr = errors.New("synthetic backend failure")
	fb.mu.Unlock()
	if _, err := cli.Parse(ctx, "example.com", "text"); !errors.Is(err, ErrRemote) {
		t.Fatalf("generic error not mapped to ErrRemote: %v", err)
	}
}

func TestTCPFetchAndApplyModel(t *testing.T) {
	artifact := bytes.Repeat([]byte{0xAB, 0xCD}, 4096)
	fb := &fakeBackend{artifact: artifact}
	_, cli := startTCP(t, fb)
	ctx := context.Background()

	got, err := cli.FetchModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, artifact) {
		t.Fatal("fetched artifact differs from served artifact")
	}

	version, err := cli.ApplyModel(ctx, artifact)
	if err != nil {
		t.Fatal(err)
	}
	if version != "v-applied" {
		t.Fatalf("version = %q", version)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if len(fb.applied) != 1 || !bytes.Equal(fb.applied[0], artifact) {
		t.Fatal("applied artifact differs")
	}
	// The server must have copied the artifact out of its read buffer:
	// mutate the slice the client sent and recheck the stored one.
	artifact[0] ^= 0xFF
	if fb.applied[0][0] == artifact[0] {
		t.Fatal("server aliases the connection read buffer")
	}
}

func TestTCPStatus(t *testing.T) {
	_, cli := startTCP(t, &fakeBackend{})
	st, err := cli.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "fake-node" || st.Generation != 7 || !st.Ready || len(st.Members) != 1 {
		t.Fatalf("status mangled: %+v", st)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	fb := &fakeBackend{}
	_, cli := startTCP(t, fb)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := cli.Parse(context.Background(), "example.com", "text"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestTCPServerHangsUpOnGarbage sends a corrupt frame and checks the
// server drops the connection instead of answering garbage with
// garbage, and says why in its log.
func TestTCPServerHangsUpOnGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	srv := ServeTCP(ln, &fakeBackend{}, obs.NewLogger("cluster", &logs))
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame whose CRC is wrong.
	raw := store.AppendFrame(nil, []byte{opStatus})
	raw[len(raw)-1] ^= 0xff
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var scratch []byte
	if _, _, err := store.ReadFrame(bufio.NewReader(conn), &scratch, maxWireFrame); err == nil {
		t.Fatal("server answered a corrupt frame")
	}
	srv.Close() // joins the connection goroutine, so its log write is visible
	if got := logs.String(); !strings.Contains(got, `level=WARN msg="corrupt request frame" comp=cluster`) {
		t.Fatalf("log %q, want a corrupt-frame warning", got)
	}
}

// TestTCPUnknownOp checks an unrecognized opcode comes back as a remote
// error, not a hangup — the op-space can grow without breaking old
// servers' peers.
func TestTCPUnknownOp(t *testing.T) {
	srv, _ := startTCP(t, &fakeBackend{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(store.AppendFrame(nil, []byte{0x7F})); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var scratch []byte
	resp, _, err := store.ReadFrame(bufio.NewReader(conn), &scratch, maxWireFrame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStatusByte(resp); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown op: err = %v, want ErrRemote", err)
	}
}

func TestTCPClientDialFailure(t *testing.T) {
	// A port nobody listens on: grab one, then close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cli := DialTCP(addr)
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := cli.Parse(ctx, "example.com", "text"); err == nil {
		t.Fatal("Parse against a dead address succeeded")
	}
}

// TestTCPCloseJoinsGoroutines: a server with live pooled client
// connections leaves no goroutine behind once Close returns.
func TestTCPCloseJoinsGoroutines(t *testing.T) {
	joined := leakcheck.Joined(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, &fakeBackend{}, nil)
	var clients []*TCPClient
	for i := 0; i < 3; i++ {
		cli := DialTCP(srv.Addr())
		clients = append(clients, cli)
		if _, err := cli.Status(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	joined()
	for _, cli := range clients {
		cli.Close()
	}
}

// Addr returns the listener address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }
