package serving

import (
	"bytes"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/wire"
)

// FuzzServingWire feeds one payload to both decoders of the serving
// protocol. Each either refuses it or decodes a value that re-encodes
// to the payload it was read from — up to the end of the tensor, when
// there is one, since the tensor decoder ignores what follows it.
func FuzzServingWire(f *testing.F) {
	// The frames TestWireBytesGolden pins, and a ListModels exchange.
	classes, err := tf.FromInts(tf.Shape{2}, []int32{7, 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	for _, req := range []WireRequest{
		{Model: "mnist", Version: 3, Argmax: true, Input: tf.Fill(tf.Shape{2, 3}, 0.5)},
		{ListModels: true},
	} {
		if err := WriteRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
	}
	for _, resp := range []WireResponse{
		{Status: StatusOK, Version: 3, ServiceVtime: 1500 * time.Microsecond, Output: classes},
		{Status: StatusOverloaded, Message: `model "mnist" queue full (64)`},
		{Status: StatusModels, Message: "mnist,ocr"},
	} {
		if err := WriteResponse(&buf, resp); err != nil {
			f.Fatal(err)
		}
	}
	for buf.Len() > 0 {
		payload, err := wire.ReadFrame(&buf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, payload); err != nil {
			t.Fatal(err)
		}
		in := frame.Bytes()
		reencoded := func(kind string, hasTensor bool, write func(*bytes.Buffer) error) {
			var out bytes.Buffer
			if err := write(&out); err != nil {
				t.Fatalf("a decoded %s does not encode: %v", kind, err)
			}
			re := out.Bytes()[4:]
			if !bytes.HasPrefix(payload, re) || (!hasTensor && len(re) != len(payload)) {
				t.Fatalf("a decoded %s re-encodes to % x, read from % x", kind, re, payload)
			}
		}
		if req, err := ReadRequest(bytes.NewReader(in)); err == nil {
			reencoded("request", !req.ListModels, func(w *bytes.Buffer) error { return WriteRequest(w, req) })
		}
		if resp, err := ReadResponse(bytes.NewReader(in)); err == nil {
			reencoded("response", resp.Status == StatusOK, func(w *bytes.Buffer) error { return WriteResponse(w, resp) })
		}
	})
}
