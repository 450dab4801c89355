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

// ReadFrame reads one length-prefixed payload, enforcing MaxFrame
// before allocating.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
