package router

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/wire"
)

// FuzzRouterManifest feeds one payload to the three handshake decoders
// — hello, manifest reply, canonical manifest. Each either refuses it
// or decodes a value that re-encodes to the payload it was read from.
func FuzzRouterManifest(f *testing.F) {
	// The frames TestWireBytesGolden pins, and an accepted reply around a
	// stand-in signature.
	m := Manifest{
		Nodes: []NodeInfo{
			{Name: "gw-0", Addr: "10.0.0.1:7000", Models: []string{"ocr", "classify"}},
			{Name: "gw-1", Addr: "10.0.0.2:7000", Models: []string{"redact"}},
		},
		Graphs: []string{"digitize"},
	}
	var buf bytes.Buffer
	if err := writeHello(&buf, hello{Models: []string{"ocr", "redact"}, Graphs: []string{"digitize"}}); err != nil {
		f.Fatal(err)
	}
	if err := writeManifestReply(&buf, nil, m, `no graph "translate"`); err != nil {
		f.Fatal(err)
	}
	if err := wire.WriteFrame(&buf, m.encode()); err != nil {
		f.Fatal(err)
	}
	if err := wire.WriteFrame(&buf, signedReply([]byte("signature"), m.encode())); err != nil {
		f.Fatal(err)
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
		same := func(kind string, re []byte) {
			if !bytes.Equal(re, payload) {
				t.Fatalf("a decoded %s re-encodes to % x, read from % x", kind, re, payload)
			}
		}
		if h, err := readHello(bytes.NewReader(in)); err == nil {
			var out bytes.Buffer
			if err := writeHello(&out, h); err != nil {
				t.Fatalf("a decoded hello does not encode: %v", err)
			}
			same("hello", out.Bytes()[4:])
		}
		if m, err := decodeManifest(payload); err == nil {
			same("manifest", m.encode())
		}
		m, _, sig, err := readManifestReply(bytes.NewReader(in))
		if err == nil {
			same("manifest reply", signedReply(sig, m.encode()))
		} else if refusal := strings.TrimPrefix(err.Error(), ErrManifestMismatch.Error()+": "); errors.Is(err, ErrManifestMismatch) && refusal != "" {
			var out bytes.Buffer
			if err := writeManifestReply(&out, nil, Manifest{}, refusal); err != nil {
				t.Fatal(err)
			}
			same("refusal", out.Bytes()[4:])
		}
	})
}

// signedReply lays an accepted reply out as writeManifestReply does.
func signedReply(sig, raw []byte) []byte {
	b := handshakeHeader(nil)
	b.U8(1)
	b.U16(uint16(len(sig)))
	return append(append(b.Buf, sig...), raw...)
}
