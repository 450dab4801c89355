package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The im2col path Conv2DInto and Conv2DGradFilterInto ran before they
// read their windows in place, kept as their oracle and as the _im2col
// twins of their benchmark rows: one tile of gathered window rows at a
// time, through the dense GEMM, on the pooled scratch.

// im2colTiling is tiling as it was for these: tiles of 64 KiB.
func (g Geom) im2colTiling() (rows, k, step int) {
	rows, k = g.N*g.OH*g.OW, g.KH*g.KW*g.C
	return rows, k, min(rows, max(1, (16<<10)/max(k, g.F)))
}

// im2col gathers rows [r0,r1) of the im2col matrix of x into col. A
// window wholly inside the input is KH runs of KW·C input values and
// needs no padding zeros.
func (g Geom) im2col(col, x []float32, r0, r1 int) {
	rowC, rowW := g.KW*g.C, g.W*g.C
	b, oy, ox := g.position(r0)
	for r := r0; r < r1; r++ {
		base, iy0, kx0, kx1 := g.window(b, oy, ox)
		row := col[:g.KH*rowC]
		col = col[len(row):]
		if kx0 == 0 && kx1 == g.KW && iy0 >= 0 && iy0+g.KH <= g.H {
			for ky := 0; ky < g.KH; ky++ {
				copy(row[ky*rowC:(ky+1)*rowC], x[base+ky*rowW:])
			}
		} else {
			for ky := 0; ky < g.KH; ky++ {
				seg := row[ky*rowC : (ky+1)*rowC]
				if iy := iy0 + ky; iy < 0 || iy >= g.H {
					clear(seg)
					continue
				}
				src := base + ky*rowW
				clear(seg[:kx0*g.C])
				copy(seg[kx0*g.C:kx1*g.C], x[src+kx0*g.C:src+kx1*g.C])
				clear(seg[kx1*g.C:])
			}
		}
		b, oy, ox = g.next(b, oy, ox)
	}
}

func im2colConv2D(dst, x, filter []float32, g Geom) {
	rows, k, step := g.im2colTiling()
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	s.tile = grow(s.tile, step*k)
	for r0 := 0; r0 < rows; r0 += step {
		r1 := min(r0+step, rows)
		g.im2col(s.tile, x, r0, r1)
		matMulRows(dst[r0*g.F:r1*g.F], s.tile, filter, 0, r1-r0, k, g.F)
	}
}

func im2colConv2DGradFilter(dFilter, gradOut, x []float32, g Geom) {
	rows, k, step := g.im2colTiling()
	s := scratchPool.Get()
	defer scratchPool.Put(s)
	s.tile = grow(s.tile, step*k)
	s.img = grow(s.img, g.F*step)
	s.wt = grow(s.wt, g.F*k)
	clear(s.wt)
	for r0 := 0; r0 < rows; r0 += step {
		r1 := min(r0+step, rows)
		n := r1 - r0
		g.im2col(s.tile, x, r0, r1)
		Transpose(s.img, gradOut[r0*g.F:r1*g.F], n, g.F)
		matMulRows(s.wt, s.img, s.tile, 0, g.F, n, k)
	}
	Transpose(dFilter, s.wt, g.F, k)
}

// oracleCases: strides 1, 2 and 3, SAME and VALID; OW%4 = 0, 1, 2 and 3
// (the rows-of-4 kernel's stragglers); C = 1; F ≤ 16 (rows of 4) and
// F > 16 (streaming); non-square inputs and windows; windows that never
// reach the last rows or columns, VALID and SAME; an even window, whose
// SAME padding is one more below and right than above and left; and the
// CNN's two layers.
var oracleCases = []struct {
	x, filter []int
	stride    int
	same      bool
	oh, ow    int
}{
	{[]int{2, 9, 8, 3}, []int{3, 3, 3, 5}, 1, true, 9, 8},
	{[]int{2, 9, 8, 3}, []int{3, 3, 3, 5}, 1, false, 7, 6},
	{[]int{1, 10, 9, 2}, []int{5, 3, 2, 4}, 2, true, 5, 5},
	{[]int{1, 10, 9, 2}, []int{5, 3, 2, 4}, 2, false, 3, 4},
	{[]int{1, 8, 7, 1}, []int{3, 3, 1, 17}, 3, false, 2, 2},  // rows 6-7 and column 6 in no window
	{[]int{2, 11, 13, 1}, []int{3, 2, 1, 8}, 3, true, 4, 5},  // padding below and right only
	{[]int{2, 8, 8, 4}, []int{1, 1, 4, 20}, 3, true, 3, 3},   // SAME, no padding, row and column 7 in no window
	{[]int{1, 6, 11, 3}, []int{2, 4, 3, 16}, 1, true, 6, 11}, // even window
	{[]int{1, 5, 7, 2}, []int{5, 7, 2, 3}, 1, false, 1, 1},   // the window is the whole input
	{[]int{2, 28, 28, 1}, []int{5, 5, 1, 8}, 1, true, 28, 28},
	{[]int{2, 14, 14, 8}, []int{5, 5, 8, 16}, 1, true, 14, 14},
}

// withSpecials replaces about a sixth of v with ±0, NaN or ±Inf.
func withSpecials(rng *rand.Rand, v []float32) []float32 {
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range v {
		if rng.Intn(6) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

// sameBits is bitEqual where, if nanOK, two NaNs agree whatever their
// payloads: which one an instruction propagates depends on its operand
// order, and is outside the contract.
func sameBits(t *testing.T, what string, got, want []float32, nanOK bool) {
	t.Helper()
	if nanOK {
		got = append([]float32(nil), got...)
		for i := range got {
			if got[i] != got[i] && want[i] != want[i] {
				got[i] = want[i]
			}
		}
	}
	bitEqual(t, what, got, want)
}

// TestConvMatchesIm2col: the convolution and its filter gradient read in
// place are bit-equal to the im2col path, on dense and sparse operands
// with zeros of either sign, on gradients as sparse as training's and
// with whole lines of zeros, and — NaNs compared as NaNs — with ±0, NaN
// and ±Inf in x, filter and gradient.
func TestConvMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range oracleCases {
		g, err := ConvGeom(tc.x, tc.filter, tc.stride, tc.same)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("conv %v*%v stride %d same=%v", tc.x, tc.filter, tc.stride, tc.same)
		if g.OH != tc.oh || g.OW != tc.ow {
			t.Fatalf("%s: output %dx%d, want %dx%d", name, g.OH, g.OW, tc.oh, tc.ow)
		}
		outLen := g.N * g.OH * g.OW * g.F
		for _, in := range []struct {
			name             string
			xZeros, gradZero float64
			special          bool
		}{
			{"dense", 0, 0, false},
			{"sparse", 0.3, 0.8, false},
			{"special", 0.2, 0.5, true},
		} {
			x := sparseFloats(rng, g.N*g.H*g.W*g.C, in.xZeros)
			filter := sparseFloats(rng, g.KH*g.KW*g.C*g.F, in.xZeros/2)
			grad := sparseFloats(rng, outLen, in.gradZero)
			if in.gradZero > 0 {
				// A whole output line of zero gradient.
				clear(grad[:g.OW*g.F])
			}
			if in.special {
				x, filter, grad = withSpecials(rng, x), withSpecials(rng, filter), withSpecials(rng, grad)
			}
			what := name + ", " + in.name

			got, want := make([]float32, outLen), make([]float32, outLen)
			Conv2DInto(got, x, filter, g)
			im2colConv2D(want, x, filter, g)
			sameBits(t, what+": forward", got, want, in.special)

			got, want = sparseFloats(rng, len(filter), 0), make([]float32, len(filter)) // overwritten, not accumulated into
			Conv2DGradFilterInto(got, grad, x, g)
			im2colConv2DGradFilter(want, grad, x, g)
			sameBits(t, what+": filter gradient", got, want, in.special)
		}
	}
}

// col2imAddGo is col2imAdd as it was before its runs were added by
// addRuns: one input row of a window at a time, one element at a time.
// It is the _scalar twin of BenchmarkKernels' col2im_add row.
func (g Geom) col2imAddGo(dx, dcol, grad []float32, r0, r1 int) {
	k := g.KH * g.KW * g.C
	b, oy, ox := g.position(r0)
	for r := r0; r < r1; r++ {
		if !allZero(grad[(r-r0)*g.F : (r-r0+1)*g.F]) {
			row := dcol[(r-r0)*k : (r-r0+1)*k]
			base, iy0, kx0, kx1 := g.window(b, oy, ox)
			for ky := 0; ky < g.KH; ky++ {
				if iy := iy0 + ky; iy < 0 || iy >= g.H {
					continue
				}
				at := base + ky*g.W*g.C
				out := dx[at+kx0*g.C : at+kx1*g.C]
				for j, v := range row[(ky*g.KW+kx0)*g.C : (ky*g.KW+kx1)*g.C] {
					out[j] += v
				}
			}
		}
		b, oy, ox = g.next(b, oy, ox)
	}
}
