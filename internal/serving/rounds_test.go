package serving

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/shield/netshield"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
)

// wideVersions are versions the wire's u32 cannot carry as an int on
// every target, MaxInt32+1 and 1<<32. Only a 64-bit int holds them; on a
// 32-bit target there is no such version to refuse and the list is
// empty.
func wideVersions() []int {
	if math.MaxInt == math.MaxInt32 {
		return nil
	}
	v := int64(math.MaxInt32) + 1
	return []int{int(v), int(v << 1)}
}

// TestWireRefusesWhatItCannotCarry: a version the u32 field cannot carry
// as an int, or a request or OK response without its tensor, is an
// error on the writing side — it used to wrap (1<<32 arrived as 0, the
// serving version) or panic — and a frame carrying such a version is
// refused on the reading side.
func TestWireRefusesWhatItCannotCarry(t *testing.T) {
	in := input(1, 1)
	type requestCase struct {
		name string
		req  WireRequest
		ok   bool
	}
	type responseCase struct {
		name string
		resp WireResponse
		ok   bool
	}
	requests := []requestCase{
		{"version 0", WireRequest{Model: "m", Input: in}, true},
		{"version MaxInt32", WireRequest{Model: "m", Version: math.MaxInt32, Input: in}, true},
		{"negative version", WireRequest{Model: "m", Version: -1, Input: in}, false},
		{"nil input", WireRequest{Model: "m"}, false},
	}
	responses := []responseCase{
		{"OK", WireResponse{Status: StatusOK, Version: math.MaxInt32, Output: in}, true},
		{"OK negative version", WireResponse{Status: StatusOK, Version: -1, Output: in}, false},
		{"OK nil output", WireResponse{Status: StatusOK, Version: 1}, false},
	}
	for _, v := range wideVersions() {
		requests = append(requests,
			requestCase{fmt.Sprintf("version %d", v), WireRequest{Model: "m", Version: v, Input: in}, false},
			requestCase{fmt.Sprintf("list with version %d", v), WireRequest{ListModels: true, Version: v}, false})
		responses = append(responses,
			responseCase{fmt.Sprintf("OK version %d", v), WireResponse{Status: StatusOK, Version: v, Output: in}, false},
			responseCase{fmt.Sprintf("error version %d", v), WireResponse{Status: StatusNotFound, Version: v, Message: "x"}, false})
	}
	for _, c := range requests {
		var buf bytes.Buffer
		err := WriteRequest(&buf, c.req)
		if (err == nil) != c.ok {
			t.Errorf("request, %s: WriteRequest = %v", c.name, err)
			continue
		}
		if !c.ok {
			if buf.Len() != 0 {
				t.Errorf("request, %s: %d bytes written before the refusal", c.name, buf.Len())
			}
			continue
		}
		got, err := ReadRequest(&buf)
		if err != nil || got.Version != c.req.Version {
			t.Errorf("request, %s: read back version %d, %v", c.name, got.Version, err)
		}
	}
	for _, c := range responses {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, c.resp); (err == nil) != c.ok || (!c.ok && buf.Len() != 0) {
			t.Errorf("response, %s: WriteResponse = %v with %d bytes written", c.name, err, buf.Len())
		}
	}

	// A peer's frame with a version above MaxInt32 is refused, both ways.
	var req, resp bytes.Buffer
	if err := WriteRequest(&req, WireRequest{Model: "m", Version: 5, Input: in}); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(req.Bytes()[4+4+len("m"):], 1<<31)
	if _, err := ReadRequest(&req); err == nil {
		t.Error("a request for version 1<<31 decoded")
	}
	if err := WriteResponse(&resp, WireResponse{Status: StatusOK, Version: 5, Output: in}); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(resp.Bytes()[4+2:], math.MaxUint32)
	if _, err := ReadResponse(&resp); err == nil {
		t.Error("a response from version 1<<32-1 decoded")
	}

	// The client refuses before sending, so its connection stays usable.
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeRounds(server, func(req WireRequest) WireResponse {
			return WireResponse{Status: StatusOK, Version: 1, Output: req.Input}
		})
	}()
	defer func() { client.Close(); <-done }()
	cl := NewClientConn(client, nil)
	if _, _, err := cl.Infer("m", 0, nil); err == nil {
		t.Error("Infer with a nil input succeeded")
	}
	for _, v := range wideVersions() {
		if _, _, err := cl.Infer("m", v, in); err == nil {
			t.Errorf("Infer pinned to version %d succeeded", v)
		}
	}
	out, _, err := cl.Infer("m", 0, in)
	if err != nil || !sameTensor(out, in) {
		t.Fatalf("Infer after two refusals: %v", err)
	}
}

// TestServeRoundsDecodesIntoTheConnectionsTensor: a connection decodes
// each request of the dtype and shape of its last one into that request's
// tensor, and any other request into a new tensor that takes its place.
// The handler here answers with the input itself, which the ownership
// rule allows: the answer is written before the next request is read.
func TestServeRoundsDecodesIntoTheConnectionsTensor(t *testing.T) {
	client, server := net.Pipe()
	var seen []*tf.Tensor
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeRounds(server, func(req WireRequest) WireResponse {
			seen = append(seen, req.Input)
			return WireResponse{Status: StatusOK, Version: 1, Output: req.Input}
		})
	}()
	ints := tf.NewTensor(tf.Int32, tf.Shape{16, 28, 28, 1})
	for i := range ints.Ints() {
		ints.Ints()[i] = int32(i) - 5000
	}
	sent := []*tf.Tensor{input(16, 1), input(16, 2), input(8, 3), ints, input(16, 4), input(16, 5)}
	cl := NewClientConn(client, nil)
	for i, in := range sent {
		resp, err := cl.Do(WireRequest{Model: "m", Input: in})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tf.EncodeTensor(resp.Output), tf.EncodeTensor(in)) {
			t.Fatalf("round %d: echoed %v %v, sent %v %v", i, resp.Output.DType(), resp.Output.Shape(), in.DType(), in.Shape())
		}
	}
	client.Close()
	<-done
	for i, reused := range []bool{false, true, false, false, false, true} {
		if i > 0 && (seen[i] == seen[i-1]) != reused {
			t.Errorf("round %d decoded into the previous round's tensor: %v, want %v", i, seen[i] == seen[i-1], reused)
		}
	}
}

// TestOneConnectionAlternatesShapes sends requests of alternating shapes
// and dtypes on one gateway connection — 16 rows, 8 rows, an Int32 input
// and 16 rows again — and holds every answer to a fresh connection's,
// bit for bit.
func TestOneConnectionAlternatesShapes(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	model := buildModel(t, 1)
	if err := g.Register("mnist", 1, model); err != nil {
		t.Fatal(err)
	}
	dial := func() *Client {
		cl, err := Dial(c, g.Addr(), "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	ints := tf.NewTensor(tf.Int32, tf.Shape{16, 28, 28, 1})
	long := dial()
	for i, in := range []*tf.Tensor{input(16, 1), input(8, 2), ints, input(16, 3), input(16, 1)} {
		req := WireRequest{Model: "mnist", Input: in}
		got, err := long.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dial().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Version != want.Version || got.Message != want.Message {
			t.Fatalf("round %d: %v %d %q, a fresh connection's %v %d %q", i, got.Status, got.Version, got.Message, want.Status, want.Version, want.Message)
		}
		if in.DType() == tf.Int32 {
			if got.Status != StatusBadRequest {
				t.Fatalf("round %d: an Int32 input answered %v, want BAD_REQUEST", i, got.Status)
			}
			continue
		}
		if got.Status != StatusOK || !bytes.Equal(tf.EncodeTensor(got.Output), tf.EncodeTensor(want.Output)) {
			t.Fatalf("round %d: %v, and the output differs from a fresh connection's", i, got.Status)
		}
		if !sameTensor(got.Output, runLocal(t, model, in)) {
			t.Fatalf("round %d: the output differs from the local interpreter's", i)
		}
	}
}

// rawWrites counts the writes made to the socket under a connection.
type rawWrites struct {
	net.Conn
	mu sync.Mutex
	n  int
}

func (c *rawWrites) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the writes counted since the last take.
func (c *rawWrites) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = 0
	return n
}

// TestOneRecordPerFrame: under the network shield every Write is TLS
// records of its own, each one write to the socket and one call across
// the enclave boundary. A served round sends each frame, header and
// payload, in one Write, so over a real shield pair a frame of up to
// 16 KiB is one raw write each way, and a larger one ⌈(n+4)/16 KiB⌉.
func TestOneRecordPerFrame(t *testing.T) {
	ca, err := seccrypto.NewCA("securetf-cas-ca")
	if err != nil {
		t.Fatal(err)
	}
	meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	shield := func(name string, hosts ...string) *netshield.Shield {
		id, err := ca.Issue(name, hosts...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := netshield.New(netshield.Config{Meter: meter, Identity: id, RootCAs: ca.CertPool(), RequireClientCert: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	server, client := shield("gateway-0", "localhost"), shield("client-0")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *rawWrites, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		raw := &rawWrites{Conn: conn}
		accepted <- raw
		sc, err := server.Server(raw)
		if err != nil {
			return
		}
		defer sc.Close()
		ServeRounds(sc, func(req WireRequest) WireResponse {
			return WireResponse{Status: StatusOK, Version: 1, Output: req.Input}
		})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	clientRaw := &rawWrites{Conn: conn}
	cc, err := client.Client(clientRaw, "localhost")
	if err != nil {
		t.Fatal(err)
	}
	serverRaw := <-accepted
	if serverRaw == nil {
		t.Fatal("accept failed")
	}
	cl := NewClientConn(cc, nil)
	defer func() { cl.Close(); <-done }()

	round := func(in *tf.Tensor) {
		t.Helper()
		if resp, err := cl.Do(WireRequest{Model: "m", Input: in}); err != nil || resp.Status != StatusOK {
			t.Fatalf("round of %v: %v, %v", in.Shape(), resp.Status, err)
		}
	}
	// Go's TLS sends short records on a fresh connection and full 16 KiB
	// ones once 128 KiB have gone each way: warm both directions past that.
	for i := 0; i < 3; i++ {
		round(input(16, int64(i)))
	}
	clientRaw.take()
	serverRaw.take()

	records := func(frame int) int { return (frame + 16<<10 - 1) / (16 << 10) }
	for _, rows := range []int{1, 16} {
		in := input(rows, 9)
		req, err := appendRequest(nil, WireRequest{Model: "m", Input: in})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := appendResponse(nil, WireResponse{Status: StatusOK, Version: 1, Output: in})
		if err != nil {
			t.Fatal(err)
		}
		round(in)
		if got, want := clientRaw.take(), records(4+len(req)); got != want {
			t.Errorf("a %d-byte request frame made %d raw writes, want %d", 4+len(req), got, want)
		}
		if got, want := serverRaw.take(), records(4+len(resp)); got != want {
			t.Errorf("a %d-byte response frame made %d raw writes, want %d", 4+len(resp), got, want)
		}
	}
}

// gatedRound sends one request on each connection at once, to a
// gateway whose dispatcher waits on gate, lets the dispatcher pull once
// when both are queued, so that the two share one micro-batch, and
// returns the two responses.
func gatedRound(t *testing.T, g *Gateway, gate chan struct{}, conns []*Client, reqs []WireRequest) []WireResponse {
	t.Helper()
	resps := make([]WireResponse, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, cl := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = cl.Do(reqs[i])
		}()
	}
	waitFor(t, "both requests queued", func() bool { return queueDepth(g, reqs[0].Model) == len(conns) })
	gate <- struct{}{}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return resps
}

// TestFailedBatchAnswersEachMemberOnce runs the batch's fail path: two
// connections' requests whose rows the model cannot reshape share one
// micro-batch, whose Invoke fails. Each member is answered once, with
// StatusInternal and no tensor. The round after it, on the same
// connections, gets its own rows: a second answer to the failed round
// would be read as its answer, and the reply tensor each connection
// reuses must hold its rows, not those of the round before the failure.
func TestFailedBatchAnswersEachMemberOnce(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{MaxBatch: 8, BatchWindow: 5 * time.Millisecond})
	model := buildModel(t, 6)
	if err := g.Register("m", 1, model); err != nil {
		t.Fatal(err)
	}
	conns := make([]*Client, 2)
	for i := range conns {
		cl, err := Dial(c, g.Addr(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		conns[i] = cl
	}
	good := func(seed int64) {
		t.Helper()
		ins := []*tf.Tensor{input(2, seed), input(3, seed+1)}
		resps := gatedRound(t, g, gate, conns, []WireRequest{{Model: "m", Input: ins[0]}, {Model: "m", Input: ins[1]}})
		for i, resp := range resps {
			if resp.Status != StatusOK || !sameTensor(resp.Output, runLocal(t, model, ins[i])) {
				t.Fatalf("connection %d, input seed %d: %v, or rows other than an unbatched Invoke's", i, seed, resp.Status)
			}
		}
	}
	good(10)
	bad := tf.RandNormal(tf.Shape{3, 5}, 1, 7) // 15 values, which no [-1, 784] holds
	for i, resp := range gatedRound(t, g, gate, conns, []WireRequest{{Model: "m", Input: bad}, {Model: "m", Input: bad}}) {
		if resp.Status != StatusInternal || resp.Output != nil {
			t.Fatalf("connection %d, the failed batch: %v with output %v, want INTERNAL and none", i, resp.Status, resp.Output)
		}
	}
	good(20)
	if m := g.Metrics()[0]; m.Served != 4 || m.Batches != 2 || m.Errors != 2 {
		t.Fatalf("served %d in %d batches with %d errors, want 4 in 2 with 2", m.Served, m.Batches, m.Errors)
	}
}

// TestTwoConnectionsShareABatch: round after round, two connections'
// requests of changing row counts share one micro-batch, which they
// fill, one asking for rows and the other for their argmax classes, and
// each gets its own, bit for bit an unbatched Invoke's. Under -race this is the check that
// a connection's reply tensor and request record pass between it and
// the batch without a race.
func TestTwoConnectionsShareABatch(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{MaxBatch: 16, BatchWindow: 50 * time.Millisecond})
	model := buildModel(t, 8)
	if err := g.Register("m", 1, model); err != nil {
		t.Fatal(err)
	}
	conns := make([]*Client, 2)
	for i := range conns {
		cl, err := Dial(c, g.Addr(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		conns[i] = cl
	}
	const rounds = 8
	for round := 0; round < rounds; round++ {
		rows, labels := input(1+round%3, int64(100+round)), input(15-round%3, int64(200+round))
		resps := gatedRound(t, g, gate, conns, []WireRequest{{Model: "m", Input: rows}, {Model: "m", Argmax: true, Input: labels}})
		if resps[0].Status != StatusOK || !sameTensor(resps[0].Output, runLocal(t, model, rows)) {
			t.Fatalf("round %d: %v, or rows other than an unbatched Invoke's", round, resps[0].Status)
		}
		want, err := ArgmaxRows(runLocal(t, model, labels))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ArgmaxRows(resps[1].Output)
		if resps[1].Status != StatusOK || err != nil || !slices.Equal(got, want) {
			t.Fatalf("round %d: %v, classes %v, want %v (%v)", round, resps[1].Status, got, want, err)
		}
	}
	if m := g.Metrics()[0]; m.Served != 2*rounds || m.Batches != rounds {
		t.Fatalf("served %d in %d batches, want %d in %d", m.Served, m.Batches, 2*rounds, rounds)
	}
}
