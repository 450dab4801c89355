package ring

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"testing"
)

// byteStream is a KeyStream whose n-th byte depends only on n, whatever
// the read sizes: splitmix64, one output word per eight bytes.
type byteStream struct {
	state uint64
	word  [8]byte
	used  int
}

func newByteStream(seed uint64) *byteStream { return &byteStream{state: seed, used: 8} }

func (s *byteStream) Read(p []byte) {
	for i := range p {
		if s.used == 8 {
			s.state += 0x9e3779b97f4a7c15
			z := s.state
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			binary.LittleEndian.PutUint64(s.word[:], z^z>>31)
			s.used = 0
		}
		p[i] = s.word[s.used]
		s.used++
	}
}

// constStream repeats one ring word forever.
type constStream []byte

func (c constStream) Read(p []byte) {
	for i := range p {
		p[i] = c[i%len(c)]
	}
}

// naive is the reference the kernels are held to: one ring word at a
// time through a uint64, the way the data path used to run, with the
// whole stream read in a single call.
func naive(dst []byte, width int, ks KeyStream, subtract bool) {
	mask := make([]byte, len(dst))
	ks.Read(mask)
	for i := 0; i < len(dst); i += width {
		var a, b uint64
		if width == 2 {
			a, b = uint64(binary.LittleEndian.Uint16(dst[i:])), uint64(binary.LittleEndian.Uint16(mask[i:]))
		} else {
			a, b = binary.LittleEndian.Uint64(dst[i:]), binary.LittleEndian.Uint64(mask[i:])
		}
		if subtract {
			a -= b
		} else {
			a += b
		}
		if width == 2 {
			binary.LittleEndian.PutUint16(dst[i:], uint16(a))
		} else {
			binary.LittleEndian.PutUint64(dst[i:], a)
		}
	}
}

// testLengths are word counts: every length through 67 (all lane tails,
// empty included), the counts around one and two stream chunks at either
// width, and the MNIST MLP's 101 770 coordinates.
func testLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	for _, around := range []int{chunkSize / 8, chunkSize / 2, chunkSize} {
		ns = append(ns, around-1, around, around+1, around+3)
	}
	return append(ns, 101770)
}

func filled(n int, seed uint64) []byte {
	b := make([]byte, n)
	newByteStream(seed).Read(b)
	return b
}

func TestStreamMatchesNaive(t *testing.T) {
	for _, width := range []int{2, 8} {
		for _, n := range testLengths() {
			for _, subtract := range []bool{false, true} {
				want := filled(n*width, 1)
				naive(want, width, newByteStream(2), subtract)
				got := filled(n*width, 1)
				if subtract {
					SubStream(got, width, newByteStream(2))
				} else {
					AddStream(got, width, newByteStream(2))
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("width %d, %d words, subtract=%v: kernel differs from the word-at-a-time reference",
						width, n, subtract)
				}
			}
		}
	}
}

// TestFoldMatchesSWAR holds fold, the assembly on amd64, to foldSWAR,
// the loop every other architecture runs, bit for bit: every whole-word
// length through three stream chunks at both widths, adding and
// subtracting, with dst and src each starting 0 to 15 bytes past a
// 16-byte boundary, so blocks and tails meet unaligned data.
func TestFoldMatchesSWAR(t *testing.T) {
	const most = 3 * chunkSize
	dstBuf, srcBuf := filled(most, 10), filled(most+16, 11)
	got, want := make([]byte, most+16), make([]byte, most+16)
	for _, width := range []int{2, 8} {
		for n := 0; n <= most; n += width {
			for _, neg := range []uint64{0, ^uint64(0)} {
				dOff, sOff := n/width%16, (n/width*7+3)%16
				src := srcBuf[sOff : sOff+n]
				g, w := got[dOff:dOff+n], want[dOff:dOff+n]
				copy(g, dstBuf[:n])
				copy(w, dstBuf[:n])
				fold(g, src, laneTops(n, width), neg)
				foldSWAR(w, src, laneTops(n, width), neg)
				if !bytes.Equal(g, w) {
					t.Fatalf("width %d, %d bytes, neg=%x, dst+%d, src+%d: fold differs from foldSWAR",
						width, n, neg, dOff, sOff)
				}
			}
		}
	}
}

// TestStreamIsConsecutive pins the stream definition the protocol
// depends on: masking variables one after another from one stream
// consumes exactly the bytes a single pass over their concatenation
// would, at any split — including splits that leave a variable starting
// mid-SWAR-word or mid-chunk in the stream.
func TestStreamIsConsecutive(t *testing.T) {
	for _, width := range []int{2, 8} {
		const words = 3*chunkSize/2 + 5
		whole := filled(words*width, 3)
		AddStream(whole, width, newByteStream(4))
		for _, cut := range []int{0, 1, 3, 67, chunkSize/width - 1, chunkSize / width, words - 1, words} {
			parts := filled(words*width, 3)
			ks := newByteStream(4)
			AddStream(parts[:cut*width], width, ks)
			AddStream(parts[cut*width:], width, ks)
			if !bytes.Equal(parts, whole) {
				t.Fatalf("width %d: splitting the vector at word %d changed the result", width, cut)
			}
		}
	}
}

func TestSubUndoesAdd(t *testing.T) {
	for _, width := range []int{2, 8} {
		for _, n := range testLengths() {
			orig := filled(n*width, 5)
			v := append([]byte(nil), orig...)
			AddStream(v, width, newByteStream(6))
			if n > 8 && bytes.Equal(v, orig) {
				t.Fatalf("width %d, %d words: adding a stream changed nothing", width, n)
			}
			SubStream(v, width, newByteStream(6))
			if !bytes.Equal(v, orig) {
				t.Fatalf("width %d, %d words: subtracting the stream did not restore the vector", width, n)
			}
		}
	}
}

// TestLaneCarries: a carry or borrow out of one 16-bit lane must vanish,
// not reach the lane above it — in every lane position, in the SWAR body
// and in the tail.
func TestLaneCarries(t *testing.T) {
	one := constStream{1, 0}
	for _, n := range []int{1, 3, 4, 5, 8, 11} {
		v := bytes.Repeat([]byte{0xff, 0xff}, n)
		AddStream(v, 2, one)
		if !bytes.Equal(v, make([]byte, 2*n)) {
			t.Fatalf("%d lanes of 0xffff + 1 = %x, want all zero", n, v)
		}
		SubStream(v, 2, one)
		if !bytes.Equal(v, bytes.Repeat([]byte{0xff, 0xff}, n)) {
			t.Fatalf("%d lanes of 0 - 1 = %x, want all 0xffff", n, v)
		}
	}
	// One saturated lane between quiet neighbours, in each position.
	for lane := 0; lane < 7; lane++ {
		v := make([]byte, 14)
		for i := range v {
			v[i] = 0x10
		}
		v[2*lane], v[2*lane+1] = 0xff, 0xff
		want := bytes.Repeat([]byte{0x11, 0x10}, 7)
		want[2*lane], want[2*lane+1] = 0, 0
		AddStream(v, 2, one)
		if !bytes.Equal(v, want) {
			t.Fatalf("carry out of lane %d leaked: %x, want %x", lane, v, want)
		}
	}
	// The 64-bit ring wraps as a whole word.
	v := bytes.Repeat([]byte{0xff}, 16)
	AddStream(v, 8, constStream{1, 0, 0, 0, 0, 0, 0, 0})
	if !bytes.Equal(v, make([]byte, 16)) {
		t.Fatalf("2⁶⁴-1 + 1 = %x, want zero", v)
	}
}

// TestSplitInvariance is what licenses fanning one upload's pair streams
// over goroutines: dealing the streams round-robin to 1, 2 or 7 private
// partial sums and reducing them with Add gives the bytes a single
// accumulator gets, because the ring is commutative.
func TestSplitInvariance(t *testing.T) {
	const streams = 9
	for _, width := range []int{2, 8} {
		for _, n := range []int{0, 5, 67, chunkSize/width + 3, 101770} {
			apply := func(dst []byte, s int) {
				if s%2 == 0 {
					AddStream(dst, width, newByteStream(uint64(100+s)))
				} else {
					SubStream(dst, width, newByteStream(uint64(100+s)))
				}
			}
			want := filled(n*width, 7)
			for s := 0; s < streams; s++ {
				apply(want, s)
			}
			for _, workers := range []int{1, 2, 7} {
				got := filled(n*width, 7)
				for w := 0; w < workers; w++ {
					partial := got
					if w > 0 {
						partial = make([]byte, n*width)
					}
					for s := w; s < streams; s += workers {
						apply(partial, s)
					}
					if w > 0 {
						Add(got, partial, width)
					}
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("width %d, %d words: %d workers differ from one accumulator", width, n, workers)
				}
			}
		}
	}
}

func TestRejectsPartialWords(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"odd bytes at width 2", func() { AddStream(make([]byte, 3), 2, newByteStream(1)) }},
		{"12 bytes at width 8", func() { SubStream(make([]byte, 12), 8, newByteStream(1)) }},
		{"width 4", func() { AddStream(make([]byte, 8), 4, newByteStream(1)) }},
		{"length mismatch", func() { Add(make([]byte, 8), make([]byte, 16), 8) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// ctrStream is what seccrypto.PRG does — AES-256-CTR over zeros — so the
// benchmark below prices the kernel against the cipher it is fed by.
type ctrStream struct{ cipher.Stream }

func newCTRStream() *ctrStream {
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		panic(err)
	}
	return &ctrStream{cipher.NewCTR(block, make([]byte, aes.BlockSize))}
}

func (s *ctrStream) Read(p []byte) {
	clear(p)
	s.XORKeyStream(p, p)
}

// BenchmarkRing measures the kernels on one MNIST-MLP-sized vector:
// AddStream at both widths fed by AES-CTR, the cipher alone (the floor),
// and Add, the fan-out's reduction.
func BenchmarkRing(b *testing.B) {
	const coords = 101770
	for _, width := range []int{2, 8} {
		dst := make([]byte, coords*width)
		b.Run(fmt.Sprintf("AddStream/width%d", width), func(b *testing.B) {
			ks := newCTRStream()
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			for b.Loop() {
				AddStream(dst, width, ks)
			}
		})
		b.Run(fmt.Sprintf("Add/width%d", width), func(b *testing.B) {
			src := filled(len(dst), 9)
			b.SetBytes(int64(len(dst)))
			b.ReportAllocs()
			for b.Loop() {
				Add(dst, src, width)
			}
		})
	}
	b.Run("KeyStreamOnly", func(b *testing.B) {
		dst := make([]byte, coords*2)
		ks := newCTRStream()
		b.SetBytes(int64(len(dst)))
		for b.Loop() {
			for off := 0; off < len(dst); off += chunkSize {
				ks.Read(dst[off:min(off+chunkSize, len(dst))])
			}
		}
	})
}
