package cas

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/sgx"
)

// dialLog is a client's Dial hook that keeps every connection it made,
// so a test can count them (each is one CAS accept) and close them.
type dialLog struct {
	mu    sync.Mutex
	conns []net.Conn
	// lose, when set, makes the next read on any connection fail after
	// the bytes arrived: a reply lost in flight.
	lose atomic.Bool
}

func (d *dialLog) dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.conns = append(d.conns, conn)
	return lossyConn{Conn: conn, lose: &d.lose}, nil
}

func (d *dialLog) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func (d *dialLog) closeLast() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.conns[len(d.conns)-1].Close()
}

type lossyConn struct {
	net.Conn
	lose *atomic.Bool
}

func (c lossyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.lose.CompareAndSwap(true, false) {
		return 0, errors.New("reply lost")
	}
	return n, err
}

// keptClient is a bootstrapped client on its own platform, at params'
// prices, dialing through log. Its dials and clock start counting after
// Bootstrap.
func (tc *testCluster) keptClient(t *testing.T, params sgx.Params, log *dialLog) *Client {
	t.Helper()
	plat, err := sgx.NewPlatform("kept-node", params)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := plat.CreateEnclave(tc.workerImage, sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Enclave:        enclave,
		Addr:           tc.server.Addr(),
		CASMeasurement: tc.server.Measurement(),
		PlatformKeys: map[string]*ecdsa.PublicKey{
			tc.casPlatform.Name(): tc.casPlatform.AttestationKey(),
		},
		Dial: log.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	log.mu.Lock()
	log.conns = nil
	log.mu.Unlock()
	return c
}

// casHandlers counts the goroutines serving a CAS connection.
func casHandlers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "cas.(*Server).handleConn(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestKeptConnectionOneHandshake: a client's register and audit calls
// share one connection: one CAS accept, and one handshake charged. The
// handshake is priced at an hour so the clock counts them.
func TestKeptConnectionOneHandshake(t *testing.T) {
	tc := newTestCluster(t)
	params := sgx.DefaultParams()
	params.TLSHandshakeCost = time.Hour
	var log dialLog
	c := tc.keptClient(t, params, &log)
	clock := c.enclave.Clock()
	start := clock.Now()

	audit := c.AuditClient()
	var root [32]byte
	if err := c.Register(tc.defaultSession()); err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		path := fmt.Sprintf("ckpt/%d", i%4)
		epoch, _, _, err := audit.CheckRoot(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := audit.AdvanceRoot(path, epoch+1, root); err != nil {
			t.Fatal(err)
		}
	}
	if n := log.count(); n != 1 {
		t.Errorf("41 round trips dialed %d connections, want 1", n)
	}
	if h := (clock.Now() - start) / params.TLSHandshakeCost; h != 1 {
		t.Errorf("41 round trips charged %d handshakes, want 1", h)
	}
}

// TestKeptConnectionConcurrentCalls: audit calls from many goroutines
// take turns on the one connection (run it under -race).
func TestKeptConnectionConcurrentCalls(t *testing.T) {
	tc := newTestCluster(t)
	var log dialLog
	audit := tc.keptClient(t, sgx.DefaultParams(), &log).AuditClient()
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("ckpt/%d", g)
			for epoch := uint64(1); epoch <= 10; epoch++ {
				if err := audit.AdvanceRoot(path, epoch, [32]byte{byte(g)}); err != nil {
					errs <- err
					return
				}
				got, root, found, err := audit.CheckRoot(path)
				if err != nil || !found || got != epoch || root[0] != byte(g) {
					errs <- fmt.Errorf("CheckRoot(%s) = %d %x %v %v, want epoch %d", path, got, root[0], found, err, epoch)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := log.count(); n != 1 {
		t.Errorf("8 concurrent callers dialed %d connections, want 1", n)
	}
}

// TestKeptConnectionPastMaxConnBytes: more than MaxConnBytes of requests
// through one client all succeed: the client moves to a new connection
// before the CAS would stop reading the old one.
func TestKeptConnectionPastMaxConnBytes(t *testing.T) {
	tc := newTestCluster(t)
	var log dialLog
	audit := tc.keptClient(t, sgx.DefaultParams(), &log).AuditClient()
	path := strings.Repeat("p", 4<<10)
	calls := MaxConnBytes/len(path) + 20
	for i := range calls {
		if _, _, _, err := audit.CheckRoot(path); err != nil {
			t.Fatalf("call %d of %d: %v", i, calls, err)
		}
	}
	if n := log.count(); n != 2 {
		t.Errorf("%d requests of %d bytes dialed %d connections, want 2", calls, len(path), n)
	}
}

// TestClientCloseLeavesNoHandler: Close ends the kept connection, and
// with it the CAS goroutine serving it.
func TestClientCloseLeavesNoHandler(t *testing.T) {
	tc := newTestCluster(t)
	var log dialLog
	c := tc.keptClient(t, sgx.DefaultParams(), &log)
	if _, _, _, err := c.AuditClient().CheckRoot("ckpt/0"); err != nil {
		t.Fatal(err)
	}
	if n := casHandlers(); n != 1 {
		t.Fatalf("%d CAS handlers serve one kept connection, want 1", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; casHandlers() > 0; i++ {
		if i == 10_000 {
			t.Fatal("a CAS handler outlived the client's Close")
		}
		runtime.Gosched()
	}
}

// TestRetryAfterDroppedConnection: a call on a kept connection that has
// gone away, or whose reply is lost after the CAS acted on it, succeeds
// on a fresh connection.
func TestRetryAfterDroppedConnection(t *testing.T) {
	tc := newTestCluster(t)
	var log dialLog
	audit := tc.keptClient(t, sgx.DefaultParams(), &log).AuditClient()
	root := [32]byte{7}
	if _, _, _, err := audit.CheckRoot("ckpt/0"); err != nil {
		t.Fatal(err)
	}
	log.closeLast()
	if _, _, _, err := audit.CheckRoot("ckpt/0"); err != nil {
		t.Fatalf("CheckRoot after the connection closed: %v", err)
	}
	log.closeLast()
	if err := audit.AdvanceRoot("ckpt/0", 1, root); err != nil {
		t.Fatalf("AdvanceRoot after the connection closed: %v", err)
	}
	// The CAS records epoch 2, the reply is lost, and the retry replays
	// the advance it already holds.
	log.lose.Store(true)
	if err := audit.AdvanceRoot("ckpt/0", 2, root); err != nil {
		t.Fatalf("AdvanceRoot whose reply was lost: %v", err)
	}
	if epoch, got, found, err := audit.CheckRoot("ckpt/0"); err != nil || !found || epoch != 2 || got != root {
		t.Fatalf("CheckRoot = %d %v %v, want epoch 2", epoch, found, err)
	}
	if n := log.count(); n != 4 {
		t.Errorf("three dropped connections led to %d dials, want 4", n)
	}
}

// TestKeptConnectionPastMaxConnBytesOfReplies: replies longer than their
// requests reach the client's read cap first; the client moves on before
// it reads the old connection dry.
func TestKeptConnectionPastMaxConnBytesOfReplies(t *testing.T) {
	tc := newTestCluster(t)
	var log dialLog
	c := tc.keptClient(t, sgx.DefaultParams(), &log)
	audit := c.AuditClient()
	if err := audit.AdvanceRoot("p", 1<<62, [32]byte{1}); err != nil {
		t.Fatal(err)
	}
	first := c.kept
	for calls := 1; log.count() < 2; calls++ {
		if calls > MaxConnBytes/64 {
			t.Fatalf("%d round trips on one connection", calls)
		}
		if _, _, _, err := audit.CheckRoot("p"); err != nil {
			t.Fatalf("call %d: %v", calls, err)
		}
	}
	if first.in.N == 0 {
		t.Error("the first connection was read to the cap before the client moved on")
	}
}
