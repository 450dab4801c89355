package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
)

// sample is one value of every record kind.
type sample struct {
	A    uint8
	B    uint16
	C    uint32
	D    uint64
	Flag bool
	S    string
	S16  string
	Blob []byte
	Ints []int
	IDs  []uint32
}

func (s sample) encode() []byte {
	var w Writer
	w.U8(s.A)
	w.U16(s.B)
	w.U32(s.C)
	w.U64(s.D)
	w.Bool(s.Flag)
	w.Str(s.S)
	w.Str16(s.S16)
	w.Bytes(s.Blob)
	w.Ints(s.Ints)
	w.U32(uint32(len(s.IDs)))
	for _, id := range s.IDs {
		w.U32(id)
	}
	return w.Buf
}

func decodeSample(b []byte) (sample, error) {
	r := NewReader(b)
	s := sample{A: r.U8(), B: r.U16(), C: r.U32(), D: r.U64(), Flag: r.Bool(),
		S: r.Str(), S16: r.Str16(), Blob: r.Bytes(), Ints: r.Ints()}
	for i, n := 0, r.Count(4); i < n; i++ {
		s.IDs = append(s.IDs, r.U32())
	}
	return s, r.Done()
}

var testSample = sample{A: 0xa1, B: 0xb1b2, C: 0xc1c2c3c4, D: 0xd1d2d3d4d5d6d7d8, Flag: true,
	S: "fc1/w", S16: "ocr", Blob: []byte{1, 2, 3}, Ints: []int{-1, 28, 28, 1}, IDs: []uint32{3, 5, 17}}

// TestRecordRoundTrip pins the record conventions — little-endian,
// u32 (or u16) length prefixes, ints as 64-bit words — and that the
// reader returns what the writer wrote, byte slices as views of the
// payload.
func TestRecordRoundTrip(t *testing.T) {
	const golden = "a1b2b1c4c3c2c1d8d7d6d5d4d3d2d101" +
		"05000000" + "6663312f77" + "0300" + "6f6372" + "03000000" + "010203" +
		"04000000" + "ffffffffffffffff" + "1c00000000000000" + "1c00000000000000" + "0100000000000000" +
		"03000000" + "03000000" + "05000000" + "11000000"
	enc := testSample.encode()
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("records encode to\n%s, want\n%s", got, golden)
	}
	got, err := decodeSample(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, testSample) {
		t.Fatalf("decoded %+v, want %+v", got, testSample)
	}
	blobAt := bytes.Index(enc, []byte{1, 2, 3})
	if &got.Blob[0] != &enc[blobAt] {
		t.Fatal("Bytes copied the record out of the payload")
	}
	if cap(got.Blob) != len(got.Blob) {
		t.Fatalf("Bytes left %d bytes of the payload appendable behind the record", cap(got.Blob)-len(got.Blob))
	}
	if _, err := decodeSample(append(enc, 0)); err == nil {
		t.Fatal("Done accepted a trailing byte")
	}
}

// TestReaderTruncation cuts the encoding at every offset: every cut
// must end in an error, the error must stick, and after it every read —
// Count above all, since it bounds loops — returns zero.
func TestReaderTruncation(t *testing.T) {
	enc := testSample.encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeSample(enc[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: err = %v, want an unexpected EOF", cut, len(enc), err)
		}
	}

	r := NewReader([]byte{7, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	if r.U8() != 7 || r.Err() != nil {
		t.Fatal("a good read failed")
	}
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err = %v for 2^32-1 eight-byte records in 8 bytes", n, r.Err())
	}
	first := r.Err()
	if r.Remaining() != 0 || r.U64() != 0 || r.Str() != "" || len(r.Bytes()) != 0 || len(r.Ints()) != 0 ||
		r.Count(1) != 0 || r.Count16(1) != 0 || r.Next(1) != nil {
		t.Fatal("a read after the error returned data")
	}
	if r.Err() != first || r.Done() != first {
		t.Fatalf("the first error did not stick: %v, then %v", first, r.Err())
	}

	// A count that fits is returned as is, and bounded by the smallest
	// record, not by the byte.
	r = NewReader([]byte{2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	if n := r.Count(4); n != 2 || r.Err() != nil {
		t.Fatalf("Count(4) = %d, err = %v for 2 records in 8 bytes", n, r.Err())
	}
	r = NewReader([]byte{2, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	if n := r.Count16(5); n != 0 || r.Err() == nil {
		t.Fatalf("Count16(5) = %d, err = %v for 2 records in 8 bytes", n, r.Err())
	}
}
