package tf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/securetf/securetf/internal/twintest"
	"github.com/securetf/securetf/internal/wire"
)

func TestShapeNumElements(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int
	}{
		{Shape{}, 1},
		{Shape{3}, 3},
		{Shape{2, 3, 4}, 24},
		{Shape{2, -1}, -1},
	}
	for _, c := range cases {
		if got := c.shape.NumElements(); got != c.want {
			t.Errorf("NumElements(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestFromFloatsValidates(t *testing.T) {
	if _, err := FromFloats(Shape{2, 2}, []float32{1, 2, 3}); err == nil {
		t.Fatal("wrong element count accepted")
	}
	tt, err := FromFloats(Shape{2, 2}, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if tt.Floats()[3] != 4 {
		t.Fatal("data not copied correctly")
	}
}

func TestReshape(t *testing.T) {
	x, _ := FromFloats(Shape{2, 6}, make([]float32, 12))
	y, err := x.Reshape(Shape{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !y.Shape().Equal(Shape{3, 4}) {
		t.Fatalf("shape = %v", y.Shape())
	}
	z, err := x.Reshape(Shape{-1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !z.Shape().Equal(Shape{4, 3}) {
		t.Fatalf("inferred shape = %v", z.Shape())
	}
	if _, err := x.Reshape(Shape{5, -1}); err == nil {
		t.Fatal("non-divisible -1 reshape accepted")
	}
	if _, err := x.Reshape(Shape{-1, -1}); err == nil {
		t.Fatal("double -1 reshape accepted")
	}
	if _, err := x.Reshape(Shape{7}); err == nil {
		t.Fatal("wrong element count reshape accepted")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x, _ := FromFloats(Shape{4}, []float32{1, 2, 3, 4})
	y, _ := x.Reshape(Shape{2, 2})
	y.Floats()[0] = 99
	if x.Floats()[0] != 99 {
		t.Fatal("reshape copied data; must be a view")
	}
	// ReshapeInto re-points a header the caller keeps instead.
	var into Tensor
	if err := ReshapeInto(&into, x, Shape{-1, 1}); err != nil {
		t.Fatal(err)
	}
	if !into.Shape().Equal(Shape{4, 1}) || !sameArray(into.Floats(), x.Floats()) {
		t.Fatalf("ReshapeInto gave shape %v, sharing storage %v", into.Shape(), sameArray(into.Floats(), x.Floats()))
	}
	if err := ReshapeInto(&into, x, Shape{3}); err == nil || into.NumElements() != 0 {
		t.Fatalf("ReshapeInto to a wrong element count: err %v, left %d elements", err, into.NumElements())
	}
}

func TestRandNormalDeterministic(t *testing.T) {
	a := RandNormal(Shape{100}, 0.1, 42)
	b := RandNormal(Shape{100}, 0.1, 42)
	if !AllClose(a, b, 0) {
		t.Fatal("same seed produced different tensors")
	}
	c := RandNormal(Shape{100}, 0.1, 43)
	if AllClose(a, c, 0) {
		t.Fatal("different seeds produced identical tensors")
	}
}

func TestOneHot(t *testing.T) {
	oh := OneHot([]int{2, 0, 9, -1}, 10)
	if !oh.Shape().Equal(Shape{4, 10}) {
		t.Fatalf("shape = %v", oh.Shape())
	}
	if oh.Floats()[2] != 1 || oh.Floats()[10] != 1 || oh.Floats()[29] != 1 {
		t.Fatal("hot positions wrong")
	}
	var sum float32
	for _, v := range oh.Floats() {
		sum += v
	}
	if sum != 3 { // -1 label contributes nothing
		t.Fatalf("sum = %v, want 3", sum)
	}
}

func TestTensorEncodeDecodeRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{0}
		}
		src, err := FromFloats(Shape{len(vals)}, vals)
		if err != nil {
			return false
		}
		got, err := DecodeTensor(EncodeTensor(src))
		if err != nil {
			return false
		}
		return AllClose(src, got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTensorEncodeDecodeInt32(t *testing.T) {
	src, _ := FromInts(Shape{2, 3}, []int32{1, -2, 3, -4, 5, -6})
	got, err := DecodeTensor(EncodeTensor(src))
	if err != nil {
		t.Fatal(err)
	}
	if got.DType() != Int32 || !got.Shape().Equal(src.Shape()) {
		t.Fatalf("decoded %v %v", got.DType(), got.Shape())
	}
	for i := range src.Ints() {
		if src.Ints()[i] != got.Ints()[i] {
			t.Fatal("int data mismatch")
		}
	}
}

func TestDecodeTensorRejectsGarbage(t *testing.T) {
	if _, err := DecodeTensor([]byte("short")); err == nil {
		t.Fatal("garbage accepted")
	}
	raw := EncodeTensor(Scalar(1))
	raw[5] = 99 // dtype byte
	if _, err := DecodeTensor(raw); err == nil {
		t.Fatal("bad dtype accepted")
	}
	for _, shape := range [][]int64{{1 << 33, 1 << 31}, {-1, 0}, {0, -1}} {
		if _, err := DecodeTensor(emptyTensorOfShape(shape)); err == nil {
			t.Fatalf("shape %v accepted as a tensor of no elements", shape)
		}
	}
}

// emptyTensorOfShape encodes a tensor that declares shape and carries no
// elements: honest for a shape with a zero in it, a lie for one whose
// product merely wraps to zero. The dimensions are int64, the wire's
// word, so a shape no 32-bit int holds can still be written (as
// wire.Writer.Ints would write it) and refused on every target.
func emptyTensorOfShape(shape []int64) []byte {
	w := wire.Writer{Buf: []byte(tensorMagic)}
	w.U8(uint8(Float32))
	w.U32(uint32(len(shape)))
	for _, d := range shape {
		w.U64(uint64(d))
	}
	w.U32(0)
	return w.Buf
}

// FuzzTensorDecode: arbitrary bytes either fail to decode or decode to a
// tensor whose encoding is, byte for byte, the prefix of the input it was
// read from — and no shorter prefix decodes, since the decoder slices
// the element words out of the payload instead of reading them one by
// one.
func FuzzTensorDecode(f *testing.F) {
	ints, _ := FromInts(Shape{2, 3}, []int32{1, -2, 3, -4, 5, -6})
	for _, t := range []*Tensor{Scalar(1), RandNormal(Shape{3, 5}, 1, 7), ints, NewTensor(Float32, Shape{0, 4})} {
		enc := EncodeTensor(t)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 0xff))
	}
	f.Add([]byte("STFT1"))
	f.Add(emptyTensorOfShape([]int64{1 << 33, 1 << 31}))
	// For DecodeTensorInto below, whose destination is a Float32 [3,5]:
	// the same shape in the other dtype, and the same elements in another
	// shape.
	f.Add(EncodeTensor(NewTensor(Int32, Shape{3, 5})))
	f.Add(EncodeTensor(RandNormal(Shape{5, 3}, 1, 7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTensor(data)
		// Decoding into place succeeds exactly where the input decodes
		// to the destination's dtype and shape, and then yields the same
		// elements; where it fails the destination is untouched.
		dst := Fill(Shape{3, 5}, -3)
		fits := err == nil && got.DType() == Float32 && got.Shape().Equal(dst.Shape())
		if cerr := CheckEncodedTensor(dst, data); (cerr == nil) != fits {
			t.Fatalf("CheckEncodedTensor = %v for an input that decodes to %v", cerr, err)
		}
		if ierr := DecodeTensorInto(dst, data); (ierr == nil) != fits {
			t.Fatalf("DecodeTensorInto = %v for an input that decodes to %v", ierr, err)
		}
		if fits && !bitEqual(dst, got) {
			t.Fatal("DecodeTensorInto and DecodeTensor disagree")
		}
		if !fits && !bitEqual(dst, Fill(Shape{3, 5}, -3)) {
			t.Fatal("a refused DecodeTensorInto wrote to its destination")
		}
		if err != nil {
			return
		}
		elems := big.NewInt(1)
		for _, d := range got.Shape() {
			if d < 0 {
				t.Fatalf("decoded the negative dimension %d", d)
			}
			elems.Mul(elems, big.NewInt(int64(d)))
		}
		if elems.Cmp(big.NewInt(int64(got.NumElements()))) != 0 {
			t.Fatalf("decoded %d elements for shape %v, whose product is %v", got.NumElements(), got.Shape(), elems)
		}
		enc := EncodeTensor(got)
		if len(enc) != EncodedTensorLen(got) || len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("decoded %v %v re-encodes to %d bytes that are not the input's first %d", got.DType(), got.Shape(), len(enc), len(enc))
		}
		if _, err := DecodeTensor(data[:len(enc)-1]); err == nil {
			t.Fatalf("a %d-byte tensor decoded from its first %d bytes", len(enc), len(enc)-1)
		}
	})
}

// TestTensorCodecMatchesLoop holds the element codec (putWords and
// setWords, one copy each on a little-endian target) to the word-by-word
// loops, byte for byte and bit for bit: NaNs quiet and signalling with
// payloads and either sign, ±0, subnormals, ±Inf, the int32 extremes and
// empty tensors, with the words at an odd offset as they sit in a frame.
func TestTensorCodecMatchesLoop(t *testing.T) {
	bits := []uint32{
		0x7fc00000, 0xffc00000, 0x7fc00001, 0xffd5a5a5, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fa5a5a5, 0xffbfffff, // signalling NaNs
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x00800000, 0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800000, 0x3eaaaaab,
	}
	floats := make([]float32, len(bits))
	for i, b := range bits {
		floats[i] = math.Float32frombits(b)
	}
	special, err := FromFloats(Shape{len(floats)}, floats)
	if err != nil {
		t.Fatal(err)
	}
	extremes, err := FromInts(Shape{2, 4}, []int32{math.MinInt32, math.MaxInt32, -1, 0, 1, math.MinInt32 + 1, math.MaxInt32 - 1, 0x01020304})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*Tensor{
		special, extremes, RandNormal(Shape{3, 5, 7}, 1, 9),
		NewTensor(Float32, Shape{0, 4}), NewTensor(Int32, Shape{0}), NewTensor(Float32, Shape{}),
	} {
		name := fmt.Sprintf("%v%v", src.DType(), src.Shape())
		n := src.NumElements()
		loop := make([]byte, 4*n)
		src.putWordsLoop(loop)
		if src == special {
			for i, b := range bits {
				if got := binary.LittleEndian.Uint32(loop[4*i:]); got != b {
					t.Fatalf("%s: the loop encodes element %d as %#x, want %#x", name, i, got, b)
				}
			}
		}
		frame := make([]byte, 1+4*n)
		words := frame[1:]
		src.putWords(words)
		if !bytes.Equal(words, loop) {
			t.Errorf("%s: putWords wrote % x, the loop % x", name, words, loop)
		}
		if enc := EncodeTensor(src); !bytes.HasSuffix(enc, loop) {
			t.Errorf("%s: EncodeTensor does not end in the loop's words", name)
		}
		got, want := NewTensor(src.DType(), src.Shape()), NewTensor(src.DType(), src.Shape())
		got.setWords(words)
		want.setWordsLoop(loop)
		if !bitEqual(want, src) {
			t.Errorf("%s: the loop does not decode its own encoding to the tensor", name)
		}
		if !bitEqual(got, want) {
			t.Errorf("%s: setWords and the loop decode the same words differently", name)
		}
		dec, err := DecodeTensor(EncodeTensor(src))
		if err != nil || !bitEqual(dec, src) {
			t.Errorf("%s: DecodeTensor(EncodeTensor) is not the tensor (err %v)", name, err)
		}
	}
}

// BenchmarkTensorCodec times the tensor codec at train-sync's largest
// variable, fc1/w: 784x512 floats, 1.6 MB on the wire.
func BenchmarkTensorCodec(b *testing.B) {
	w := RandNormal(Shape{784, 512}, 1, 8)
	enc := EncodeTensor(w)
	b.Run("encode/784x512", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc = EncodeTensor(w)
		}
	})
	b.Run("decode/784x512", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeTensor(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// twins are the package's fast paths: the element codec's copy, built
// on little-endian targets, against its word-by-word loop, in place at
// fc1/w's 784x512 floats. On a big-endian target the loop is the codec.
var twins = []twintest.Row{
	{Name: "codec_put/train-sync/784x512", Needs: littleEndian, Floor: 2, Setup: func(*rand.Rand) (func(), func()) {
		w, words := codecOperands()
		return func() { w.putWords(words) }, func() { w.putWordsLoop(words) }
	}},
	{Name: "codec_set/train-sync/784x512", Needs: littleEndian, Floor: 0, Setup: func(*rand.Rand) (func(), func()) {
		w, words := codecOperands()
		return func() { w.setWords(words) }, func() { w.setWordsLoop(words) }
	}},
}

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// codecOperands is fc1/w and room for its words.
func codecOperands() (*Tensor, []byte) {
	w := RandNormal(Shape{784, 512}, 1, 8)
	return w, make([]byte, 4*w.NumElements())
}

// BenchmarkTwins times each row's fast path against its twin.
func BenchmarkTwins(b *testing.B) { twintest.Bench(b, twins) }

func TestSliceRows(t *testing.T) {
	floats, _ := FromFloats(Shape{4, 2}, []float32{0, 1, 2, 3, 4, 5, 6, 7})
	ints, _ := FromInts(Shape{3}, []int32{7, 8, 9})
	cases := []struct {
		name   string
		in     *Tensor
		lo, hi int
		shape  Shape // nil: an error is expected
	}{
		{"float32 middle rows", floats, 1, 3, Shape{2, 2}},
		{"int32 labels", ints, 2, 3, Shape{1}},
		{"unsupported dtype", NewTensor(DType(9), Shape{2, 2}), 0, 1, nil},
		{"scalar", Scalar(1), 0, 1, nil},
		{"negative lo", floats, -1, 2, nil},
		{"hi past the end", floats, 0, 5, nil},
		{"empty range", floats, 2, 2, nil},
		{"reversed range", floats, 3, 1, nil},
	}
	for _, c := range cases {
		got, err := SliceRows(c.in, c.lo, c.hi)
		if c.shape == nil {
			if err == nil {
				t.Errorf("%s: slice [%d, %d) accepted", c.name, c.lo, c.hi)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got.DType() != c.in.DType() || !got.Shape().Equal(c.shape) {
			t.Errorf("%s: got %v%v, want %v%v", c.name, got.DType(), got.Shape(), c.in.DType(), c.shape)
		}
	}
	mid, _ := SliceRows(floats, 1, 3)
	if got := mid.Floats(); got[0] != 2 || got[3] != 5 {
		t.Errorf("float rows [1,3) = %v", got)
	}
	last, _ := SliceRows(ints, 2, 3)
	if last.Ints()[0] != 9 {
		t.Errorf("int row [2,3) = %v", last.Ints())
	}
}
