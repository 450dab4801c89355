package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"runtime"
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
// little-endian length then the payload, written in one Write and read
// in two Reads — the network shield charges per call, so the count is
// part of the cost model. WriteFrame and a frame begun by StartFrame
// put the same bytes on the wire the same way.
func TestFrameGolden(t *testing.T) {
	const golden = "963c97c1c13b5b35a92626c5c6dc96d2cda62779ed6f139f5f88a5277095ce1a"
	for name, send := range map[string]func(io.Writer) error{
		"WriteFrame": func(w io.Writer) error { return WriteFrame(w, []byte("hello")) },
		"SendFrame":  func(w io.Writer) error { return SendFrame(w, append(StartFrame([]byte("stale")), "hello"...)) },
	} {
		var buf bytes.Buffer
		w := &callRecorder{rw: &buf}
		if err := send(w); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != golden {
			t.Fatalf("%s: frame bytes changed: sha256 %s, want %s", name, got, golden)
		}
		r := &callRecorder{rw: &buf}
		payload, err := ReadFrame(r)
		if err != nil || string(payload) != "hello" {
			t.Fatalf("%s: ReadFrame = %q, %v", name, payload, err)
		}
		if len(w.calls) != 1 || w.calls[0] != 9 {
			t.Fatalf("%s: frame written in calls of %v bytes, want [9]", name, w.calls)
		}
		if len(r.calls) != 2 || r.calls[0] != 4 || r.calls[1] != 5 {
			t.Fatalf("%s: frame read in calls of %v bytes, want [4 5]", name, r.calls)
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

// TestReadFrameIntoReusesItsBuffer: a buffer that holds the frame is the
// frame's storage and the call allocates nothing; the result is a slice
// of exactly the frame's length whatever the buffer's; a frame the
// buffer cannot hold gets a new one; and MaxFrame is refused before any
// of that.
func TestReadFrameIntoReusesItsBuffer(t *testing.T) {
	var stream bytes.Buffer
	for _, payload := range []string{"hello, frame", "hi", "a longer frame than the buffer holds"} {
		if err := WriteFrame(&stream, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 3, 16)
	first, err := ReadFrameInto(&stream, buf)
	if err != nil || string(first) != "hello, frame" || len(first) != 12 || &first[0] != &buf[:1][0] {
		t.Fatalf("a 12-byte frame into a 16-byte buffer = %q (len %d), %v; want the buffer's array", first, len(first), err)
	}
	second, err := ReadFrameInto(&stream, first)
	if err != nil || string(second) != "hi" || len(second) != 2 || &second[0] != &first[0] || cap(second) != 16 {
		t.Fatalf("a 2-byte frame into the last frame = %q (len %d, cap %d), %v; want the same array, whole", second, len(second), cap(second), err)
	}
	third, err := ReadFrameInto(&stream, second)
	if err != nil || string(third) != "a longer frame than the buffer holds" || &third[0] == &second[0] {
		t.Fatalf("a frame longer than the 16-byte buffer = %q, %v; want a new array", third, err)
	}

	var frame bytes.Buffer
	if err := WriteFrame(&frame, make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	r, buf := bytes.NewReader(frame.Bytes()), make([]byte, 0, 1<<10)
	if allocs := testing.AllocsPerRun(10, func() {
		r.Seek(0, io.SeekStart)
		if _, err := ReadFrameInto(r, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("reading into a large-enough buffer made %v allocations", allocs)
	}

	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrameInto(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("a header past MaxFrame was accepted")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("refusing a header past MaxFrame allocated %d bytes", grown)
	}
}
