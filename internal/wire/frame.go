package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds length-prefixed frames on the wire, for every
// protocol (the MNIST CNN's variables are ~2 MB; 1 GiB leaves room for
// any model the zoo builds).
const MaxFrame = 1 << 30

// A frame is a 4-byte little-endian payload length, then the payload,
// and it is sent in one Write: under the network shield every Write is
// TLS records of its own (one per 16 KiB) and one call across the
// enclave boundary, so a header sent apart from its payload would cost
// one of each again. A frame is read in two calls, the header and then
// the payload, because its length is not known before the header.

// StartFrame empties buf and reserves a frame header at its front. The
// caller appends the payload to the result and sends it with SendFrame,
// so a connection that hands each frame back as the next call's buf
// encodes and sends its frames from one buffer.
func StartFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// SendFrame fills in the header of a frame begun by StartFrame and sends
// the frame in one Write. A payload ReadFrame would reject is refused
// before anything is written.
func SendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// WriteFrame sends payload as one frame (see SendFrame) from a buffer of
// its own, into which it copies the payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	frame := StartFrame(make([]byte, 0, 4+len(payload)))
	return SendFrame(w, append(frame, payload...))
}

// ReadFrame reads one length-prefixed payload into a buffer of its own,
// enforcing MaxFrame before allocating.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto reads one length-prefixed payload of n bytes and returns
// it as a slice of exactly n: of buf's array when that holds n bytes
// (whatever buf's length), of a new one otherwise. MaxFrame is enforced
// before anything is allocated. A reader that hands each result back as
// the next call's buf reads a connection's frames into one buffer, which
// grows to the largest frame and goes when the connection does; each
// frame is then valid until the next read, which overwrites it.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The header passes through the buffer as well: an array of this
	// function's would escape through r and be the call's one allocation.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	n, err := ReadHeader(r, buf[:4])
	if err != nil {
		return nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadHeader reads a frame's header into hdr, which holds 4 bytes, and
// returns the payload length that follows it, refused past MaxFrame.
// A reader that owns hdr (a field of a connection's, say) reads it
// without an allocation.
func ReadHeader(r io.Reader, hdr []byte) (int, error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	return int(n), nil
}
