package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"
)

// callRecorder records the size of every Read and Write it forwards.
type callRecorder struct {
	rw    io.ReadWriter
	calls []int
}

func (c *callRecorder) Write(p []byte) (int, error) {
	c.calls = append(c.calls, len(p))
	return c.rw.Write(p)
}

func (c *callRecorder) Read(p []byte) (int, error) {
	c.calls = append(c.calls, len(p))
	return c.rw.Read(p)
}

// TestFrameGolden pins the frame format and its call pattern: a 4-byte
// little-endian length then the payload, as two Writes and two Reads —
// the network shield charges per call, so the count is part of the
// cost model.
func TestFrameGolden(t *testing.T) {
	const golden = "963c97c1c13b5b35a92626c5c6dc96d2cda62779ed6f139f5f88a5277095ce1a"
	var buf bytes.Buffer
	w := &callRecorder{rw: &buf}
	if err := WriteFrame(w, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("frame bytes changed: sha256 %s, want %s", got, golden)
	}
	r := &callRecorder{rw: &buf}
	payload, err := ReadFrame(r)
	if err != nil || string(payload) != "hello" {
		t.Fatalf("ReadFrame = %q, %v", payload, err)
	}
	for _, calls := range [][]int{w.calls, r.calls} {
		if len(calls) != 2 || calls[0] != 4 || calls[1] != 5 {
			t.Fatalf("frame moved in calls of %v bytes, want [4 5]", calls)
		}
	}
}

func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("a header past MaxFrame was accepted")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, 'h', 'i'})); err == nil {
		t.Fatal("a truncated payload was accepted")
	}
}
