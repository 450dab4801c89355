// Package codec is a wirealloc fixture: decoders that size allocations
// from attacker-controlled frame bytes.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"

	"github.com/securetf/securetf/internal/wire"
)

// DecodeNaive honours the frame's length hint without checking it: a
// 4-byte header can demand gigabytes.
func DecodeNaive(frame []byte) []byte {
	n := binary.LittleEndian.Uint32(frame)
	return make([]byte, n) // want "make sized by \"n\""
}

// DecodeChecked is the required shape: the hint is compared against
// the remaining payload before it sizes anything.
func DecodeChecked(frame []byte) ([]byte, error) {
	n := binary.LittleEndian.Uint32(frame)
	if int(n) > len(frame)-4 {
		return nil, errors.New("corrupt frame")
	}
	return make([]byte, n), nil
}

// DecodeEntries grows a slice in a loop bounded by an unchecked count
// read off the wire.
func DecodeEntries(r *bytes.Reader) ([]uint64, error) {
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for i := uint64(0); i < count; i++ { // want "append loop bounded by \"count\""
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// DecodeHeader sizes from a header byte plus framing; the hint is
// bounded by 257, so the site is reviewed and suppressed.
func DecodeHeader(frame []byte) []byte {
	n := int(frame[0]) + 2
	//securetf:allow wirealloc n is one header byte plus framing, bounded by 257
	return make([]byte, n)
}

// DecodeRecords reads two tables through the record reader: a U32 is
// still the peer's number, a Count has been held against the remaining
// payload.
func DecodeRecords(frame []byte) ([]uint64, []uint64) {
	r := wire.NewReader(frame)
	n := r.U32()
	hinted := make([]uint64, n) // want "make sized by \"n\""
	count := r.Count(8)
	return hinted, make([]uint64, count)
}
