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
// when the golden was recorded — header, stamp and payload — in two
// Write calls (4-byte header, then payload), because the network shield
// charges per call.
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
		n, err := send(&conn, &vtime.Clock{}, sgx.DefaultParams(), m)
		if err != nil {
			t.Fatalf("seed frame %d: %v", i, err)
		}
		if n != conn.buf.Len() || len(conn.writes) != 2 || conn.writes[0] != 4 || conn.writes[1] != n-4 {
			t.Fatalf("seed frame %d: %d bytes reported, %d written in calls %v; want header and payload as two writes", i, n, conn.buf.Len(), conn.writes)
		}
		h.Write(conn.buf.Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("dist wire bytes changed: sha256 %s, want %s", got, golden)
	}
}
