package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/securetf/securetf/internal/seccrypto"
)

// TestWireBytesGolden pins the router handshake format: the hello, a
// refusal and the canonical manifest must encode to the bytes they
// encoded to when the golden was recorded. A signed reply carries a
// fresh ECDSA signature, so for it the test pins everything around the
// signature: the frame length, the unsigned prefix and the manifest
// bytes behind it.
func TestWireBytesGolden(t *testing.T) {
	const golden = "43db1ffacaed54c00c36a39e68a567dcbc100bb8cc1f628d644134d653d12f0b"
	m := Manifest{
		Nodes: []NodeInfo{
			{Name: "gw-0", Addr: "10.0.0.1:7000", Models: []string{"ocr", "classify"}},
			{Name: "gw-1", Addr: "10.0.0.2:7000", Models: []string{"redact"}},
		},
		Graphs: []string{"digitize"},
	}
	var buf bytes.Buffer
	if err := writeHello(&buf, hello{Models: []string{"ocr", "redact"}, Graphs: []string{"digitize"}}); err != nil {
		t.Fatal(err)
	}
	if err := writeManifestReply(&buf, nil, m, `no graph "translate"`); err != nil {
		t.Fatal(err)
	}
	raw := m.encode()
	buf.Write(raw)
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("router wire bytes changed: sha256 %s, want %s", got, golden)
	}

	key, err := seccrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	var reply bytes.Buffer
	if err := writeManifestReply(&reply, key, m, ""); err != nil {
		t.Fatal(err)
	}
	b := reply.Bytes()
	if len(b) < 9 || int(binary.LittleEndian.Uint32(b)) != len(b)-4 {
		t.Fatalf("signed reply of %d bytes has a bad length prefix", len(b))
	}
	sigLen := int(binary.LittleEndian.Uint16(b[7:]))
	if !bytes.Equal(b[4:7], []byte{helloMagic, handshakeVersion, 1}) || len(b) != 9+sigLen+len(raw) || !bytes.Equal(b[9+sigLen:], raw) {
		t.Fatalf("signed reply is not prefix ‖ signature ‖ canonical manifest: % x", b)
	}
}
