package serving

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"testing"

	"github.com/securetf/securetf/internal/tf"
)

// TestWireRefusesWhatItCannotCarry: a version the u32 field cannot carry
// as an int, or a request or OK response without its tensor, is an
// error on the writing side — it used to wrap (1<<32 arrived as 0, the
// serving version) or panic — and a frame carrying such a version is
// refused on the reading side.
func TestWireRefusesWhatItCannotCarry(t *testing.T) {
	in := input(1, 1)
	requests := []struct {
		name string
		req  WireRequest
		ok   bool
	}{
		{"version 0", WireRequest{Model: "m", Input: in}, true},
		{"version MaxInt32", WireRequest{Model: "m", Version: math.MaxInt32, Input: in}, true},
		{"negative version", WireRequest{Model: "m", Version: -1, Input: in}, false},
		{"version MaxInt32+1", WireRequest{Model: "m", Version: math.MaxInt32 + 1, Input: in}, false},
		{"version 1<<32", WireRequest{Model: "m", Version: 1 << 32, Input: in}, false},
		{"nil input", WireRequest{Model: "m"}, false},
		{"list with a huge version", WireRequest{ListModels: true, Version: 1 << 32}, false},
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
	responses := []struct {
		name string
		resp WireResponse
		ok   bool
	}{
		{"OK", WireResponse{Status: StatusOK, Version: math.MaxInt32, Output: in}, true},
		{"OK version 1<<32", WireResponse{Status: StatusOK, Version: 1 << 32, Output: in}, false},
		{"OK negative version", WireResponse{Status: StatusOK, Version: -1, Output: in}, false},
		{"OK nil output", WireResponse{Status: StatusOK, Version: 1}, false},
		{"error version MaxInt32+1", WireResponse{Status: StatusNotFound, Version: math.MaxInt32 + 1, Message: "x"}, false},
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
	if _, _, err := cl.Infer("m", 1<<32, in); err == nil {
		t.Error("Infer pinned to version 1<<32 succeeded")
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
