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

// WriteFrame writes one length-prefixed payload (4-byte little-endian
// length, then the bytes), refusing payloads ReadFrame would reject.
// Header and payload are two Write calls: the network shield charges
// per call, so the count is part of the cost model.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
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
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
