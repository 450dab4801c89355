package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// matMulRowsGo, the scalar loop, is the oracle: it is the loop every
// pinned trajectory in the repo was recorded on, it runs on every
// architecture, and on a CPU without AVX it is also what matMulRows
// runs, so these tests then compare it with itself and pass.

// gemmShapes are the GEMMs the benchmark's workloads run, as matMulRows
// sees them: the fully connected layers whole, the convolutions one
// im2col tile at a time. zeros is the share of a that is zero.
var gemmShapes = []struct {
	name    string
	m, k, n int
	zeros   float64
}{
	{"serve-steady/m1_k2048_n2048", 1, 2048, 2048, 0.2},
	{"serve-fleet/m8_k784_n128", 8, 784, 128, 0.2},
	{"serve-fleet/m16_k784_n128", 16, 784, 128, 0.2},
	{"train-sync/m50_k784_n512", 50, 784, 512, 0.2},
	{"train-sync/fc1_grad_w_m784_k50_n512", 784, 50, 512, 0.2},
	{"train-sync/fc1_grad_x_m50_k512_n784", 50, 512, 784, 0.5},
	{"train-sync/conv1_tile_m655_k25_n8", 655, 25, 8, 0.75},
	{"train-sync/conv2_tile_m81_k200_n16", 81, 200, 16, 0.1},
	{"train-sync/conv2_grad_filter_tile_m16_k81_n200", 16, 81, 200, 0.8},
	{"train-sync/conv2_grad_input_tile_m81_k16_n200", 81, 16, 200, 0.8},
}

// awkwardFloats draws the values a lane can get wrong: zeros of either
// sign (zeroShare of them), denormals, and magnitudes whose products and
// sums overflow, underflow and cancel. All are finite.
func awkwardFloats(rng *rand.Rand, n int, zeroShare float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		var v float32
		switch p := rng.Float64(); {
		case p < zeroShare:
		case p < zeroShare+(1-zeroShare)*0.1:
			v = math.Float32frombits(uint32(rng.Intn(1 << 23))) // a denormal, or +0
		case p < zeroShare+(1-zeroShare)*0.2:
			v = float32(rng.NormFloat64()) * float32(math.Ldexp(1, rng.Intn(250)-125))
		default:
			v = float32(rng.NormFloat64())
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// framed returns want copied to offset off of a longer slice whose every
// other element is the canary, and the sub-slice holding the copy, its
// capacity cut so that an append or a reslice cannot reach the frame.
func framed(want []float32, off int, canary float32) (whole, part []float32) {
	whole = make([]float32, off+len(want)+9)
	for i := range whole {
		whole[i] = canary
	}
	part = whole[off : off+len(want) : off+len(want)]
	copy(part, want)
	return whole, part
}

// checkAgainstGo runs rows [lo,hi) of the product through matMulRows and
// through the scalar loop, the operands of the former placed off
// elements into framed slices: a lane that read outside a or b would
// poison c with their frames' NaN, one that wrote outside c would break
// its frame, and rows outside [lo,hi) must come back untouched. Where
// nanOK, two NaNs agree whatever their payloads: which one an instruction
// propagates depends on its operand order, and is outside the contract.
func checkAgainstGo(t *testing.T, what string, c0, a, b []float32, lo, hi, k, n, off int, nanOK bool) {
	t.Helper()
	nan := float32(math.NaN())
	want := append([]float32(nil), c0...)
	matMulRowsGo(want, a, b, lo, hi, k, n)

	_, fa := framed(a, off, nan)
	_, fb := framed(b, off, nan)
	const canary = 12345.678 // finite, so that a stray lane adding NaN to it shows
	whole, got := framed(c0, off, canary)
	matMulRows(got, fa, fb, lo, hi, k, n)
	if nanOK {
		for i := range want {
			if got[i] != got[i] && want[i] != want[i] {
				got[i] = want[i]
			}
		}
	}
	bitEqual(t, what, got, want)
	for i, v := range whole {
		if (i < off || i >= off+len(c0)) && v != canary {
			t.Fatalf("%s: wrote %v at %d, outside c[%d:%d]", what, v, i, off, off+len(c0))
		}
	}
}

func TestMatMulRowsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Seven rows are one group of four and three stragglers; rows 1 to 6
	// of them, so that neither end of c, a is the end of its slice.
	const m, lo, hi = 7, 1, 6
	for n := 0; n <= 67; n++ {
		for _, k := range []int{0, 1, 3, 4, 5, 200} {
			for off := 0; off < 8; off++ {
				zeros := []float64{0, 0.1, 0.8, 1}[(n+k+off)%4]
				for _, rows := range [][2]int{{lo, hi}, {0, m}} {
					a, b := awkwardFloats(rng, m*k, zeros), awkwardFloats(rng, k*n, 0.1)
					c0 := awkwardFloats(rng, m*n, 0.3) // accumulated into: -0 and denormals included
					what := fmt.Sprintf("rows %v of m%d·k%d·n%d at offset %d, %.0f%% zeros", rows, m, k, n, off, 100*zeros)
					checkAgainstGo(t, what, c0, a, b, rows[0], rows[1], k, n, off, false)
				}
			}
		}
	}
	for _, s := range gemmShapes {
		if testing.Short() && s.m*s.k*s.n > 1<<22 {
			continue
		}
		a, b := sparseFloats(rng, s.m*s.k, s.zeros), sparseFloats(rng, s.k*s.n, 0)
		checkAgainstGo(t, s.name, make([]float32, s.m*s.n), a, b, 0, s.m, s.k, s.n, 3, false)
	}
}

// TestMatMulRowsNonFinite: infinities and NaNs are outside the bit
// contract but not outside the domain; the two loops must still agree on
// which outputs are NaN and, bit for bit, on those that are not.
func TestMatMulRowsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	special := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32}
	for _, n := range []int{1, 7, 8, 13, 16, 17, 40} {
		for _, k := range []int{1, 4, 9} {
			const m = 6
			a, b, c0 := awkwardFloats(rng, m*k, 0.3), awkwardFloats(rng, k*n, 0.1), awkwardFloats(rng, m*n, 0.3)
			for _, s := range [][]float32{a, b, c0} {
				for i := 0; i < len(s); i += 1 + rng.Intn(4) {
					s[i] = special[rng.Intn(len(special))]
				}
			}
			checkAgainstGo(t, fmt.Sprintf("m%d·k%d·n%d", m, k, n), c0, a, b, 0, m, k, n, 1, true)
		}
	}
}

// FuzzMatMulRows feeds both loops arbitrary bit patterns.
func FuzzMatMulRows(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(9), uint8(0), []byte("\x00\x00\x80\x3f\x00\x00\x00\x80\x01\x00\x00\x00\x00\x00\x80\x7f"))
	f.Add(uint8(4), uint8(200), uint8(16), uint8(3), []byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0, 0, 0xcd, 0xcc, 0x4c, 0x3e})
	f.Add(uint8(9), uint8(17), uint8(67), uint8(7), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, m8, k8, n8, off8 uint8, data []byte) {
		m, k, n, off := int(m8%10), int(k8), int(n8%70), int(off8%8)
		if len(data) < 4 {
			data = append(data, 1, 2, 3, 4)
		}
		// The operands cycle through data, one float32 per four bytes,
		// each from its own phase.
		pattern := func(count, phase int) []float32 {
			out := make([]float32, count)
			for i := range out {
				at := (4 * (i + phase)) % (len(data) - 3)
				out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[at:]))
			}
			return out
		}
		a, b, c0 := pattern(m*k, 0), pattern(k*n, 1), pattern(m*n, 2)
		checkAgainstGo(t, fmt.Sprintf("m%d·k%d·n%d", m, k, n), c0, a, b, 0, m, k, n, off, true)
	})
}

// TestMatMulIntoChecksShapesFirst: a slice too short for its shape
// panics before one element of c is written, whichever loop runs and
// whatever the thread count; an empty dimension is not an error and
// writes nothing.
func TestMatMulIntoChecksShapesFirst(t *testing.T) {
	const m, k, n = 6, 5, 20
	rng := rand.New(rand.NewSource(23))
	a, b := sparseFloats(rng, m*k, 0), sparseFloats(rng, k*n, 0)
	cases := []struct {
		name             string
		lenC, lenA, lenB int
		m, k, n          int
		panics           bool
	}{
		{"short a", m * n, m*k - 1, k * n, m, k, n, true},
		{"short b", m * n, m * k, k*n - 1, m, k, n, true},
		{"short c", m*n - 1, m * k, k * n, m, k, n, true},
		{"negative m", m * n, m * k, k * n, -1, k, n, true},
		{"negative k", m * n, m * k, k * n, m, -1, n, true},
		{"negative n", m * n, m * k, k * n, m, k, -1, true},
		{"m = 0", m * n, m * k, k * n, 0, k, n, false},
		{"k = 0", m * n, m * k, k * n, m, 0, n, false},
		{"n = 0", m * n, m * k, k * n, m, k, 0, false},
		{"n = 0, empty b and c", 0, m * k, 0, m, k, 0, false},
	}
	for _, tc := range cases {
		for _, threads := range []int{1, 3} {
			c := make([]float32, tc.lenC)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				MatMulInto(c, a[:tc.lenA], b[:tc.lenB], tc.m, tc.k, tc.n, threads)
				return false
			}()
			if panicked != tc.panics {
				t.Errorf("%s, %d threads: panicked = %v, want %v", tc.name, threads, panicked, tc.panics)
			}
			if !allZero(c) {
				t.Errorf("%s, %d threads: c was written", tc.name, threads)
			}
		}
	}
}
