package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestTransposeMatchesScalar holds the tile transpose to its Go loop bit
// for bit: every side from {1, 7, 8, 9, 50, 784} by {1, 5, 8, 16, 512},
// so that whole tiles, a last tile overlapping the one before it and
// sides too short for a tile all run; dense and as strided sub-matrices
// of wider ones; and on awkward floats (NaN payloads of both signs, ±0,
// ±Inf, subnormals), which a move must keep as they are. The gaps
// between the destination's rows hold awkward floats too and must come
// back untouched. On a CPU without AVX both sides are the Go loop.
func TestTransposeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, m := range []int{1, 7, 8, 9, 50, 784} {
		for _, n := range []int{1, 5, 8, 16, 512} {
			for _, pad := range [][2]int{{0, 0}, {3, 5}} {
				lds, ldd := n+pad[0], m+pad[1]
				what := fmt.Sprintf("[%d,%d] at strides %d, %d", m, n, lds, ldd)
				src := shifted(awkward(rng, (m-1)*lds+n), pad[0]%4)
				dst := awkward(rng, (n-1)*ldd+m)
				want, got := shifted(dst, 0), shifted(dst, pad[1]%4)
				transposeGo(want, src, m, n, lds, ldd)
				transpose(got, src, m, n, lds, ldd)
				bitEqual(t, what, got, want)
				if pad[0] == 0 && pad[1] == 0 {
					got := shifted(dst, 1)
					Transpose(got, src, m, n)
					bitEqual(t, "Transpose "+what, got, want)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	// Past asmWork floats the rows go in blocks, here of 256 and then 261:
	// the last five are too few for a block of their own.
	const m, n = 517, 4096
	src, want, got := randFloats(rng, m*n), make([]float32, m*n), make([]float32, m*n)
	transposeGo(want, src, m, n, n, m)
	Transpose(got, src, m, n)
	bitEqual(t, fmt.Sprintf("[%d,%d]", m, n), got, want)
}

// TestTransposeChecksShapesFirst: a slice too short for its shape, a
// negative side or stride, or destination rows that overlap panic before
// one element of dst is written; an empty side is not an error and
// writes nothing.
func TestTransposeChecksShapesFirst(t *testing.T) {
	const m, n, lds, ldd = 9, 20, 23, 11
	src := sparseFloats(rand.New(rand.NewSource(44)), (m-1)*lds+n, 0)
	dense := func(m, n int) func(dst, src []float32) {
		return func(dst, src []float32) { Transpose(dst, src, m, n) }
	}
	strided := func(lds, ldd int) func(dst, src []float32) {
		return func(dst, src []float32) { transpose(dst, src, m, n, lds, ldd) }
	}
	cases := []struct {
		name           string
		lenDst, lenSrc int
		call           func(dst, src []float32)
		panics         bool
	}{
		{"short src", m * n, m*n - 1, dense(m, n), true},
		{"short dst", m*n - 1, m * n, dense(m, n), true},
		{"negative m", m * n, m * n, dense(-1, n), true},
		{"negative n", m * n, m * n, dense(m, -1), true},
		{"m = 0", m * n, m * n, dense(0, n), false},
		{"n = 0, empty slices", 0, 0, dense(m, 0), false},
		{"exact at strides", (n-1)*ldd + m, (m-1)*lds + n, strided(lds, ldd), false},
		{"short src at strides", (n-1)*ldd + m, (m-1)*lds + n - 1, strided(lds, ldd), true},
		{"short dst at strides", (n-1)*ldd + m - 1, (m-1)*lds + n, strided(lds, ldd), true},
		{"ldd < m", m * n, m * n, strided(n, m-1), true},
		{"negative lds", m * n, m * n, strided(-1, m), true},
	}
	for _, tc := range cases {
		dst := make([]float32, tc.lenDst)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			tc.call(dst, src[:tc.lenSrc:tc.lenSrc])
			return false
		}()
		if panicked != tc.panics {
			t.Errorf("%s: panicked = %v, want %v", tc.name, panicked, tc.panics)
		}
		if tc.panics && !allZero(dst) {
			t.Errorf("%s: dst was written", tc.name)
		}
	}
}
