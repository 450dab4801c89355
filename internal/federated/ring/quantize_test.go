package ring

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// int8Step is the federated int8 codec's step, DefaultClip/127; exact
// is a power of two, at which every half-step tie is a float32.
const (
	int8Step = 0.25 / 127
	exact    = 1.0 / 128
)

// awkwardInt8 returns n coordinate pairs (delta, residual) that walk
// every edge of QuantizeInt8's contract at the given step: NaNs with
// assorted payloads (quiet and signalling, on either side), ±Inf, ±0,
// denormals, exact half-step ties of both signs, the clip bound and
// just past it, and pseudo-random bit patterns in between.
func awkwardInt8(n int, step float64, seed uint64) (delta, residual []float32) {
	special := []float32{
		float32(math.NaN()), math.Float32frombits(0x7fa00001), math.Float32frombits(0xffc12345),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x80000001), math.MaxFloat32, -math.MaxFloat32,
		float32(127 * step), float32(-127 * step), float32(127.5 * step), float32(-127.5 * step),
		float32(128 * step), float32(1e-30),
	}
	raw := make([]byte, 8*n)
	newByteStream(seed).Read(raw)
	delta, residual = make([]float32, n), make([]float32, n)
	for i := range delta {
		d := binary.LittleEndian.Uint32(raw[8*i:])
		r := binary.LittleEndian.Uint32(raw[8*i+4:])
		switch i % 5 {
		case 0: // arbitrary bits
			delta[i], residual[i] = math.Float32frombits(d), math.Float32frombits(r)
		case 1: // a half-step tie, k.5 steps for k in [−130, 130]
			k := float64(int(d%261) - 130)
			delta[i] = float32((k + 0.5) * step)
		case 2: // in range, with a residual
			delta[i] = float32((float64(d)/(1<<32) - 0.5) * 300 * step)
			residual[i] = float32((float64(r)/(1<<32) - 0.5) * step)
		default:
			delta[i] = special[d%uint32(len(special))]
			residual[i] = special[r%uint32(len(special))]
			if r&1 == 0 {
				residual[i] = 0
			}
		}
	}
	return delta, residual
}

// quantizeBoth runs QuantizeInt8 and quantizeInt8Go on the same input
// and reports whether payload bytes and residual bits agree, writing
// into buffers one word and one float longer than the input so a store
// past the end shows.
func quantizeBoth(delta, residual []float32, step float64) (bool, []byte, []byte) {
	n := len(delta)
	got, want := make([]byte, 2*n+2), make([]byte, 2*n+2)
	gotNext, wantNext := make([]float32, n+1), make([]float32, n+1)
	QuantizeInt8(got[:2*n], delta, residual, gotNext[:n], step)
	quantizeInt8Go(want[:2*n], delta, residual, wantNext[:n], step)
	same := bytes.Equal(got, want) && slices.EqualFunc(gotNext, wantNext, func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b)
	})
	return same, got, want
}

// TestQuantizeMatchesScalar holds QuantizeInt8, the assembly on amd64,
// to quantizeInt8Go bit for bit: payload words and residual bits, at
// every length through 67 and at fed-round's 101 770, each starting 0
// to 3 floats into its buffers, at the codec's step and at a power of
// two.
func TestQuantizeMatchesScalar(t *testing.T) {
	for _, step := range []float64{int8Step, exact} {
		delta, residual := awkwardInt8(101770+3, step, 5)
		for _, n := range append(testLengths()[:68], 101770) {
			for off := range 4 {
				d, r := delta[off:off+n], residual[(off*3)%4:(off*3)%4+n]
				if same, got, want := quantizeBoth(d, r, step); !same {
					t.Fatalf("step %v, %d coordinates from +%d: QuantizeInt8 differs from quantizeInt8Go\n got  %x\n want %x",
						step, n, off, got[:min(len(got), 64)], want[:min(len(want), 64)])
				}
			}
		}
	}
}

// TestQuantizeContract pins the contract's corners against hand values,
// so the oracle itself cannot drift: ties go away from zero, the clip is
// ±127, a NaN gives the word 0 and keeps its NaN as the residual, and a
// negative coordinate that rounds to zero leaves its own −0 behind as
// +0 (−0 − −0·step).
func TestQuantizeContract(t *testing.T) {
	nan := math.Float32frombits(0x7fc01234)
	negZero := float32(math.Copysign(0, -1))
	cases := []struct {
		v, r float32
		word int16
		next float32
	}{
		{2.5 * exact, 0, 3, -0.5 * exact},
		{-2.5 * exact, 0, -3, 0.5 * exact},
		{0.5 * exact, 0, 1, -0.5 * exact},
		{-0.25 * exact, 0, 0, -0.25 * exact},
		{200 * exact, 0, 127, 73 * exact},
		{-200 * exact, 0, -127, -73 * exact},
		{float32(math.Inf(1)), 0, 127, float32(math.Inf(1))},
		{negZero, 0, 0, 0},
		{negZero, negZero, 0, 0},
		{nan, 0, 0, nan},
	}
	for _, c := range cases {
		for _, n := range []int{1, 4, 9} { // the tail alone, one block, both
			delta, residual := make([]float32, n), make([]float32, n)
			for i := range delta {
				delta[i], residual[i] = c.v, c.r
			}
			dst, next := make([]byte, 2*n), make([]float32, n)
			QuantizeInt8(dst, delta, residual, next, exact)
			for i := range n {
				word := int16(binary.LittleEndian.Uint16(dst[2*i:]))
				if word != c.word || math.Float32bits(next[i]) != math.Float32bits(c.next) {
					t.Fatalf("%v + %v (%d coordinates, #%d): word %d, residual %v (%#x); want %d, %v (%#x)",
						c.v, c.r, n, i, word, next[i], math.Float32bits(next[i]), c.word, c.next, math.Float32bits(c.next))
				}
			}
		}
	}
}

// FuzzQuantizeInt8 feeds arbitrary float32 bit patterns, as (delta,
// residual) pairs, to the vector and scalar loops at every tail length
// and start offset of a block, and requires equal payload bytes and
// equal residual bits. The step is drawn too, kept finite and positive
// as the contract asks.
func FuzzQuantizeInt8(f *testing.F) {
	for seed := range uint64(4) {
		delta, residual := awkwardInt8(21, exact, seed)
		raw := make([]byte, 0, 8*len(delta))
		for i := range delta {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(delta[i]))
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(residual[i]))
		}
		f.Add(raw, int8Step)
		f.Add(raw, exact)
	}
	f.Fuzz(func(t *testing.T, raw []byte, step float64) {
		if !(step > 0) || math.IsInf(step, 0) {
			step = int8Step
		}
		n := min(len(raw)/8, 256)
		delta, residual := make([]float32, n), make([]float32, n)
		for i := range n {
			delta[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i:]))
			residual[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[8*i+4:]))
		}
		for off := 0; off < 4 && off <= n; off++ {
			for end := max(off, n-4); end <= n; end++ {
				if same, got, want := quantizeBoth(delta[off:end], residual[off:end], step); !same {
					t.Fatalf("step %v, coordinates [%d:%d]: QuantizeInt8 differs from quantizeInt8Go\n got  %x\n want %x",
						step, off, end, got, want)
				}
			}
		}
	})
}

// TestQuantizeIntoDelta holds the federated client's in-place form,
// next aliasing delta, to the separate-buffer result, bit for bit, on
// both paths: QuantizeInt8 (whole blocks in assembly on amd64 with AVX)
// and quantizeInt8Go, at lengths that leave a tail of every size.
func TestQuantizeIntoDelta(t *testing.T) {
	paths := []struct {
		name     string
		quantize func(dst []byte, delta, residual, next []float32, step float64)
	}{{"QuantizeInt8", QuantizeInt8}, {"quantizeInt8Go", quantizeInt8Go}}
	delta, residual := awkwardInt8(101770, int8Step, 9)
	for _, p := range paths {
		for _, n := range []int{1, 7, 9, 15, 17, 23, 67, 101770} {
			d, r := delta[:n], residual[:n]
			want, wantNext := make([]byte, 2*n), make([]float32, n)
			p.quantize(want, d, r, wantNext, int8Step)
			got, inPlace := make([]byte, 2*n), slices.Clone(d)
			p.quantize(got, inPlace, r, inPlace, int8Step)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d coordinates: the words differ when next is delta", p.name, n)
			}
			for i := range wantNext {
				if math.Float32bits(inPlace[i]) != math.Float32bits(wantNext[i]) {
					t.Fatalf("%s, %d coordinates: residual %d is %#x in place, %#x apart",
						p.name, n, i, math.Float32bits(inPlace[i]), math.Float32bits(wantNext[i]))
				}
			}
		}
	}
}
