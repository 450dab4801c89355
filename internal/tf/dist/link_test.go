package dist

import (
	"bytes"
	"maps"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
)

// fakeShard is a one-shard parameter server of the tiny model that runs
// the handshake honestly and answers every pull with reply.
func fakeShard(t *testing.T, reply *message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		clock, params := &vtime.Clock{}, sgx.DefaultParams()
		for {
			msg, err := Receive(conn, clock, params)
			if err != nil {
				return
			}
			resp := reply
			if msg.Kind == msgHello {
				resp = &message{Kind: msgManifest, Shards: 1, OK: true, Names: []string{"b", "w"}}
			}
			if _, err := Send(conn, clock, params, resp); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestPullOfAnotherDTypeIsAnError: a shard that answers a pull with an
// Int32 tensor of a variable's shape fails the step, and the frame's
// well-formed half is not installed either. (Installed, the tensor has
// no floats for the step's matmul, which panics.)
func TestPullOfAnotherDTypeIsAnError(t *testing.T) {
	ints, err := tf.FromInts(tf.Shape{4, 3}, make([]int32, 12))
	if err != nil {
		t.Fatal(err)
	}
	for name, vars := range map[string]map[string]*tf.Tensor{
		"int32 of the variable's shape": {"w": ints, "b": tf.Fill(tf.Shape{3}, 9)},
		"another shape":                 {"w": tf.Fill(tf.Shape{3, 4}, 9), "b": tf.Fill(tf.Shape{3}, 9)},
		"a variable nobody has":         {"w": tf.Fill(tf.Shape{4, 3}, 9), "b": tf.Fill(tf.Shape{3}, 9), "c": tf.Fill(tf.Shape{3}, 9)},
	} {
		t.Run(name, func(t *testing.T) {
			addr := fakeShard(t, &message{Kind: msgVars, OK: true, Vars: vars})
			w, _ := newTestWorker(t, 0, addr)
			before := tf.SaveCheckpoint(w.replica.sess)
			if err := w.Step(); err == nil {
				t.Fatal("the step succeeded")
			}
			if !bytes.Equal(tf.SaveCheckpoint(w.replica.sess), before) {
				t.Fatal("a pull reply that was refused changed the session's variables")
			}
		})
	}
}

// TestWarmStepAllocation is the training step's ceiling: a worker-step
// of the MNIST CNN at batch 50 against a shard in this process — both
// ends of the connection, so the pull's encode and decode, the push's,
// the commit and the step's Run — allocates at most 64 KiB. The replica
// fetches its gradients into tensors it keeps and feeds views of its
// shard, so nothing the size of the model or a minibatch is left.
func TestWarmStepAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	m := models.MNISTCNN(1)
	model := Model{Graph: m.Graph, X: m.X, Y: m.Y, Loss: m.Loss}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewParameterServer(PSConfig{Listener: ln, Vars: InitialVars(m.Graph), Workers: 1, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	labels := make([]int, 200)
	for i := range labels {
		labels[i] = i % 10
	}
	w, err := NewWorker(WorkerConfig{
		Addrs: []string{ln.Addr().String()}, Model: model, BatchSize: 50,
		XS: tf.RandNormal(tf.Shape{200, 28, 28, 1}, 1, 2), YS: tf.OneHot(labels, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	perStep := make([]uint64, 5)
	for i := range perStep {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perStep[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perStep)
	median := perStep[len(perStep)/2]
	if median > 64<<10 {
		t.Fatalf("a warm worker-step allocated %d bytes, want at most 64 KiB", median)
	}
	t.Logf("a warm worker-step allocated %d bytes", median)
}

// TestWarmLinkSendAllocation: a Link encodes each frame behind the header
// it reserved in its write buffer and sends both in one Write, so once
// the buffer has grown to the frame a Send allocates nothing — no header,
// no copy of the payload — and the frame is one write of the size Send
// reports.
func TestWarmLinkSendAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	conn := &recordConn{}
	l := NewLink(conn, nil)
	meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	m := &message{
		Kind: msgPush, Worker: 1, Round: 3, Step: 7,
		Vars:  map[string]*tf.Tensor{"fc1/w": tf.RandNormal(tf.Shape{784, 128}, 1, 3)},
		Grads: map[string][]byte{"fc1/b": make([]byte, 512)},
	}
	n, err := l.Send(meter, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 1 || conn.writes[0] != n || conn.buf.Len() != n {
		t.Fatalf("a %d-byte frame was written in calls of %v bytes, want one", n, conn.writes)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		conn.buf.Reset()
		conn.writes = conn.writes[:0]
		if _, err := l.Send(meter, m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Link.Send made %v allocations, want 0", allocs)
	}
}

// TestLinkReadsIntoOneBuffer: the blobs of a received message alias the
// link's read buffer, so the next receive on the link overwrites them —
// a frame is valid until the next read, which is the rule every user of
// a link has to keep and the reason Receive, which cannot know its
// caller keeps it, reads into a buffer of its own.
func TestLinkReadsIntoOneBuffer(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	clock, params := &vtime.Clock{}, sgx.DefaultParams()
	go func() {
		for _, fill := range []byte{1, 2, 3} {
			blob := bytes.Repeat([]byte{fill}, 64)
			if _, err := Send(client, &vtime.Clock{}, params, &message{Kind: msgPush, Grads: map[string][]byte{"w": blob}}); err != nil {
				return
			}
		}
	}()
	l := NewLink(server, nil)
	first, err := l.Receive(sgx.NewMeter(clock, params))
	if err != nil {
		t.Fatal(err)
	}
	blob := first.Grads["w"]
	if blob[0] != 1 {
		t.Fatalf("first frame's blob starts with %d", blob[0])
	}
	if _, err := l.Receive(sgx.NewMeter(clock, params)); err != nil {
		t.Fatal(err)
	}
	if blob[0] != 2 {
		t.Fatal("the link read its second frame into another buffer than its first")
	}
	kept, err := Receive(server, clock, params)
	if err != nil {
		t.Fatal(err)
	}
	if sameBytes(kept.Grads["w"], blob) {
		t.Fatal("Receive read into a link's buffer")
	}
}

func sameBytes(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestCompressedPushDecodedBeforeNextRead: a compressed push's blobs are
// the shard's read buffer, and a worker may have its next frame on the
// wire before the push is acknowledged. The shard must have turned the
// blobs into gradients before it reads that frame: the variables the
// pipelined pull reports are the ones the push, intact, produces.
func TestCompressedPushDecodedBeforeNextRead(t *testing.T) {
	ps, addr, _ := newTestPS(t, 1, func(cfg *PSConfig) { cfg.Compression = Int8Compression() })
	initial := ps.Vars()
	grad := tf.RandNormal(tf.Shape{4, 3}, 1, 5)
	blob, _, err := Int8Compression().compress(grad, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent, err := decompressGrad(blob, grad.Shape())
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clock, params := &vtime.Clock{}, sgx.DefaultParams()
	codec, topk := Int8Compression().Wire()
	if _, err := Send(conn, clock, params, &message{Kind: msgHello, Shards: 1, Codec: codec, TopK: topk}); err != nil {
		t.Fatal(err)
	}
	if hello, err := Receive(conn, clock, params); err != nil || !hello.OK {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	// Both frames are written before either answer is read.
	for _, m := range []*message{
		{Kind: msgPush, Grads: map[string][]byte{"w": blob}},
		{Kind: msgPull},
	} {
		if _, err := Send(conn, clock, params, m); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := Receive(conn, clock, params)
	if err != nil || !ack.OK {
		t.Fatalf("push: %+v, %v", ack, err)
	}
	vars, err := Receive(conn, clock, params)
	if err != nil || vars.Kind != msgVars {
		t.Fatalf("pull: %+v, %v", vars, err)
	}
	got, was, g := vars.Vars["w"].Floats(), initial["w"].Floats(), sent.Floats()
	for i := range got {
		if want := was[i] - float32(0.5*1*g[i]); got[i] != want {
			t.Fatalf("w[%d] = %v after the push, want %v", i, got[i], want)
		}
	}
}

// FrameSpy remembers, weakly, every frame buffer the connections it
// wraps read into or write from. It is exported to this directory's
// external tests, where a Link's other users (internal/federated, which
// this package cannot import) are held to the same rule.
type FrameSpy struct {
	mu sync.Mutex
	// bufs holds a weak pointer to each buffer's last byte, which every
	// slice of the buffer that reaches a Read or Write shares.
	bufs map[weak.Pointer[byte]]bool
}

// Arrays is the number of distinct frame buffers the spied connections
// used.
func (s *FrameSpy) Arrays() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bufs)
}

// Listen wraps ln: the connections it accepts are spied on.
func (s *FrameSpy) Listen(ln net.Listener) net.Listener { return spyListener{ln, s} }

// Dial is a net.Dial whose connection is spied on.
func (s *FrameSpy) Dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return spyConn{conn, s}, nil
}

// Released fails t unless the spied connections moved a frame and,
// within five seconds of collections, nothing — no global, no pool,
// neither end — still refers to a buffer they used.
func (s *FrameSpy) Released(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	bufs := slices.Collect(maps.Keys(s.bufs))
	s.mu.Unlock()
	if len(bufs) == 0 {
		t.Fatal("the spied connections read and wrote no frame")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		live := 0
		for _, p := range bufs {
			if p.Value() != nil {
				live++
			}
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frame buffers are still reachable after their connection closed", live, len(bufs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type spyListener struct {
	net.Listener
	spy *FrameSpy
}

func (l spyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return spyConn{conn, l.spy}, nil
}

type spyConn struct {
	net.Conn
	spy *FrameSpy
}

func (c spyConn) note(p []byte) {
	if len(p) > 64 { // a frame buffer, not a 4-byte header
		c.spy.mu.Lock()
		if c.spy.bufs == nil {
			c.spy.bufs = make(map[weak.Pointer[byte]]bool)
		}
		c.spy.bufs[weak.Make(&p[:cap(p)][cap(p)-1])] = true
		c.spy.mu.Unlock()
	}
}

func (c spyConn) Read(p []byte) (int, error)  { c.note(p); return c.Conn.Read(p) }
func (c spyConn) Write(p []byte) (int, error) { c.note(p); return c.Conn.Write(p) }

// TestFrameBuffersGoWithTheConnection: once a worker has closed its
// connections, nothing — no global, no pool, not the shard, which is
// still serving, and not the worker — refers to the frame buffers of
// either end.
func TestFrameBuffersGoWithTheConnection(t *testing.T) {
	var spy FrameSpy
	_, addr, _ := newTestPS(t, 1, func(cfg *PSConfig) { cfg.Listener = spy.Listen(cfg.Listener) })
	xs, ys := tinyShard(30, 100)
	w, err := NewWorker(WorkerConfig{Addrs: []string{addr}, Dial: spy.Dial, Model: tinyModel(7), XS: xs, YS: ys, BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	w.Close()
	spy.Released(t)
}

// TestPushThatDoesNotFitIsAnswered: a raw push naming a variable of
// another shape is refused with an ack, not a hang-up, and the
// connection goes on to serve a well-formed one.
func TestPushThatDoesNotFitIsAnswered(t *testing.T) {
	ps, addr, _ := newTestPS(t, 1, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clock, params := &vtime.Clock{}, sgx.DefaultParams()
	exchange := func(m *message) *message {
		t.Helper()
		if _, err := Send(conn, clock, params, m); err != nil {
			t.Fatal(err)
		}
		resp, err := Receive(conn, clock, params)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if hello := exchange(&message{Kind: msgHello, Shards: 1}); !hello.OK {
		t.Fatalf("hello: %+v", hello)
	}
	bad := exchange(&message{Kind: msgPush, Vars: map[string]*tf.Tensor{"w": tf.Fill(tf.Shape{3, 4}, 1)}})
	if bad.OK || !strings.Contains(bad.Err, `"w"`) {
		t.Fatalf("a push of another shape was answered %+v", bad)
	}
	if good := exchange(&message{Kind: msgPush, Vars: map[string]*tf.Tensor{"w": tf.Fill(tf.Shape{4, 3}, 1)}}); !good.OK {
		t.Fatalf("the push after it was refused: %+v", good)
	}
	if ps.Rounds() != 1 {
		t.Fatalf("Rounds() = %d, want the one well-formed push", ps.Rounds())
	}
}
