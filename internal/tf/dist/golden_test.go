package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"testing"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

// recordConn records what send puts on a connection: the bytes and the
// size of every Write call.
type recordConn struct {
	net.Conn
	buf    bytes.Buffer
	writes []int
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.buf.Write(p)
}

// TestWireBytesGolden pins the dist/federated wire format: every seed
// frame with at most one map entry (map order is unspecified on the
// wire), sent from a zero clock, must produce the bytes it produced
// when the golden was recorded — header, stamp and payload — in one
// Write call, because the network shield charges per call.
func TestWireBytesGolden(t *testing.T) {
	const golden = "9b7af3217e0156a4496dc97e5e6a23b4fb73c798d287309d2c8e5afb94d5d31b"
	h := sha256.New()
	for i, payload := range fuzzSeedFrames() {
		m, err := decode(payload)
		if err != nil {
			t.Fatalf("seed frame %d: %v", i, err)
		}
		if len(m.Vars) > 1 || len(m.Grads) > 1 {
			continue
		}
		var conn recordConn
		n, err := Send(&conn, &vtime.Clock{}, sgx.DefaultParams(), m)
		if err != nil {
			t.Fatalf("seed frame %d: %v", i, err)
		}
		if n != conn.buf.Len() || len(conn.writes) != 1 || conn.writes[0] != n {
			t.Fatalf("seed frame %d: %d bytes reported, %d written in calls %v; want header and payload as one write", i, n, conn.buf.Len(), conn.writes)
		}
		h.Write(conn.buf.Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("dist wire bytes changed: sha256 %s, want %s", got, golden)
	}
}

// TestEncodeSizesItsBufferOnce: encode computes the frame size before it
// writes, so a message without tensors costs exactly one allocation — the
// frame — however large its blobs are. Every optional field and both
// trailing extensions are populated, and the frame is padded to one byte
// past a whole number of 8 KiB pages, where the allocator rounds a
// too-small request up to nothing: an undercount of even one byte shows
// up as a second, regrown buffer.
func TestEncodeSizesItsBufferOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	m := &message{
		Kind: msgFedPush, Worker: 3, Round: 9, Err: "an error string",
		Names:   []string{"fc1/w", "fc1/b"},
		Grads:   map[string][]byte{"fc1/w": nil, "fc1/b": make([]byte, 300)},
		Closed:  true,
		Seed:    7,
		Clients: []uint32{1, 2, 3, 4, 5},
		Evicted: true,
	}
	m.Grads["fc1/w"] = make([]byte, 8*8192+1-len(m.encode(nil)))
	if n := len(m.encode(nil)); n != 8*8192+1 {
		t.Fatalf("padded frame is %d bytes, want %d", n, 8*8192+1)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.encode(nil) }); allocs != 1 {
		t.Fatalf("encode made %v allocations, want 1 (the frame buffer)", allocs)
	}
}
