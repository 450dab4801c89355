package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Writer appends records to Buf in the conventions of the package
// comment. The caller sizes Buf (or lets append grow it) and takes it
// back when done.
type Writer struct {
	Buf []byte
}

func (w *Writer) U8(v uint8)   { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16) { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }

// Bool writes one byte, 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str writes a u32 length and the string's bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Str16 is Str with a u16 length.
func (w *Writer) Str16(s string) {
	w.U16(uint16(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Bytes writes a u32 length and the bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Ints writes a u32 count and each value as a 64-bit two's complement
// word.
func (w *Writer) Ints(vals []int) {
	w.U32(uint32(len(vals)))
	for _, v := range vals {
		w.U64(uint64(int64(v)))
	}
}

// Reader decodes the records of one payload. Its error is sticky: the
// first read past the end (or count past what the payload can hold)
// records the error and exhausts the reader, so every later read
// returns zero and a decoder may read a run of fields and check Err
// once. Byte slices it returns alias the payload.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader reads records from payload.
func NewReader(payload []byte) *Reader { return &Reader{data: payload} }

// Err is the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining is the number of bytes not yet consumed; zero after an
// error.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Done ends a decoding that must consume the whole payload: it returns
// Err, or an error if bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && r.Remaining() != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", r.Remaining()))
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: offset %d of %d: %w", r.off, len(r.data), err)
	}
	r.off = len(r.data)
}

// Next consumes n bytes and returns them as a sub-slice of the payload
// (capacity clipped, so an append cannot write into the frame).
func (r *Reader) Next(n int) []byte {
	if n < 0 || n > r.Remaining() {
		r.fail(fmt.Errorf("record of %d bytes, %d remain: %w", n, r.Remaining(), io.ErrUnexpectedEOF))
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bool reads one byte; any non-zero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str reads a u32 length and that many bytes as a string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Str16 is Str with a u16 length.
func (r *Reader) Str16() string { return string(r.Next(int(r.U16()))) }

// Bytes reads a u32 length and returns that many bytes of the payload,
// not a copy.
func (r *Reader) Bytes() []byte { return r.Next(int(r.U32())) }

// Ints reads what Writer.Ints wrote.
func (r *Reader) Ints() []int {
	vals := make([]int, r.Count(8))
	for i := range vals {
		vals[i] = int(int64(r.U64()))
	}
	return vals
}

// Count reads a u32 count of records that each occupy at least
// minRecord bytes, and returns it only if the rest of the payload can
// hold that many; otherwise it fails the reader and returns 0 — as it
// does after any earlier error, so no loop spins. Every loop bound and
// every make sized from input goes through it: a count past the
// payload is a corrupt frame, not an allocation hint to honour.
func (r *Reader) Count(minRecord int) int { return r.count(uint64(r.U32()), minRecord) }

// Count16 is Count for a u16 count.
func (r *Reader) Count16(minRecord int) int { return r.count(uint64(r.U16()), minRecord) }

func (r *Reader) count(n uint64, minRecord int) int {
	if n > uint64(r.Remaining()/minRecord) {
		r.fail(fmt.Errorf("count of %d records of at least %d bytes, %d remain: %w", n, minRecord, r.Remaining(), io.ErrUnexpectedEOF))
		return 0
	}
	return int(n)
}
