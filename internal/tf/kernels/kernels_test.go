package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The naive references below index every tensor element by its
// coordinates, share no code with the kernels, and keep the kernels'
// summation order, so "equal" means bit-equal. They are the independent
// implementation the two engines used to be for each other.

func randFloats(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		// A fifth exact zeros, so the skip-zero branches run.
		if rng.Intn(5) > 0 {
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

func bitEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func refMatMul(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for kk := 0; kk < k; kk++ {
				if a[i*k+kk] != 0 {
					sum += a[i*k+kk] * b[kk*n+j]
				}
			}
			c[i*n+j] = sum
		}
	}
	return c
}

func TestMatMulInto(t *testing.T) {
	const threads = 4
	cases := []struct{ m, k, n int }{
		{1, 7, 5},   // serving's unbatched row
		{3, 4, 6},   // m < 2*threads: one chunk
		{7, 5, 3},   // still one chunk
		{8, 6, 4},   // m == 2*threads: first split
		{10, 3, 9},  // m not divisible by threads
		{33, 16, 2}, // ragged last chunk
		{0, 4, 4},
		{4, 0, 4},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		a, b := randFloats(rng, tc.m*tc.k), randFloats(rng, tc.k*tc.n)
		want := refMatMul(a, b, tc.m, tc.k, tc.n)
		for _, th := range []int{1, threads} {
			got := make([]float32, tc.m*tc.n)
			MatMulInto(got, a, b, tc.m, tc.k, tc.n, th)
			bitEqual(t, fmt.Sprintf("matmul %dx%dx%d threads=%d", tc.m, tc.k, tc.n, th), got, want)
		}
	}
}

// at reads x[b,y,x,c] of an NHWC tensor.
func at(x []float32, g Geom, b, iy, ix, c int) float32 {
	return x[((b*g.H+iy)*g.W+ix)*g.C+c]
}

func refConv2D(x, filter []float32, g Geom) []float32 {
	out := make([]float32, g.N*g.OH*g.OW*g.F)
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				for f := 0; f < g.F; f++ {
					var sum float32
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							iy, ix := oy*g.Stride+ky-g.PadTop, ox*g.Stride+kx-g.PadLeft
							if iy < 0 || iy >= g.H || ix < 0 || ix >= g.W {
								continue
							}
							for c := 0; c < g.C; c++ {
								if xv := at(x, g, b, iy, ix, c); xv != 0 {
									sum += xv * filter[((ky*g.KW+kx)*g.C+c)*g.F+f]
								}
							}
						}
					}
					out[((b*g.OH+oy)*g.OW+ox)*g.F+f] = sum
				}
			}
		}
	}
	return out
}

// refConv2DGradInput and refConv2DGradFilter are the loop nests the tf
// session ran before the gradients were lowered to GEMM, kept verbatim:
// the trajectories pinned across the repo were recorded on them.
func refConv2DGradInput(gradOut, filter []float32, g Geom) []float32 {
	out := make([]float32, g.N*g.H*g.W*g.C)
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				gBase := ((b*g.OH+oy)*g.OW + ox) * g.F
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.PadTop
					if iy < 0 || iy >= g.H {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.PadLeft
						if ix < 0 || ix >= g.W {
							continue
						}
						inBase := ((b*g.H+iy)*g.W + ix) * g.C
						fBase := (ky*g.KW + kx) * g.C * g.F
						for cc := 0; cc < g.C; cc++ {
							fRow := filter[fBase+cc*g.F : fBase+(cc+1)*g.F]
							var sum float32
							for ff, fv := range fRow {
								sum += gradOut[gBase+ff] * fv
							}
							out[inBase+cc] += sum
						}
					}
				}
			}
		}
	}
	return out
}

func refConv2DGradFilter(gradOut, x []float32, g Geom) []float32 {
	out := make([]float32, g.KH*g.KW*g.C*g.F)
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				gBase := ((b*g.OH+oy)*g.OW + ox) * g.F
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.PadTop
					if iy < 0 || iy >= g.H {
						continue
					}
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.PadLeft
						if ix < 0 || ix >= g.W {
							continue
						}
						inBase := ((b*g.H+iy)*g.W + ix) * g.C
						fBase := (ky*g.KW + kx) * g.C * g.F
						for cc := 0; cc < g.C; cc++ {
							xv := x[inBase+cc]
							if xv == 0 {
								continue
							}
							oRow := out[fBase+cc*g.F : fBase+(cc+1)*g.F]
							for ff := range oRow {
								oRow[ff] += xv * gradOut[gBase+ff]
							}
						}
					}
				}
			}
		}
	}
	return out
}

// convCases cover SAME and VALID, strides 1 and 2, non-square inputs and
// windows, one channel, a row count (392) that is not a multiple of the
// 81-row tile its K=200 gets, a K (17500) and an F (20000) larger than
// the whole tile, and the channel, filter and line widths that select
// between the filter gradient's copy and transpose paths.
var convCases = []struct {
	x, filter []int
	stride    int
	same      bool
	oh, ow    int
}{
	{[]int{2, 8, 8, 3}, []int{3, 3, 3, 4}, 1, true, 8, 8},
	{[]int{2, 8, 8, 3}, []int{3, 3, 3, 4}, 1, false, 6, 6},
	{[]int{1, 9, 7, 2}, []int{5, 3, 2, 3}, 2, true, 5, 4},
	{[]int{1, 9, 7, 2}, []int{5, 3, 2, 3}, 2, false, 3, 3},
	{[]int{1, 4, 4, 1}, []int{4, 4, 1, 2}, 1, false, 1, 1},
	{[]int{3, 12, 10, 1}, []int{5, 5, 1, 8}, 1, true, 12, 10},
	{[]int{2, 14, 14, 8}, []int{5, 5, 8, 16}, 1, true, 14, 14},
	{[]int{1, 6, 5, 700}, []int{5, 5, 700, 2}, 1, true, 6, 5},
	{[]int{1, 7, 7, 700}, []int{5, 5, 700, 2}, 2, false, 2, 2},
	{[]int{1, 3, 2, 1}, []int{1, 1, 1, 20000}, 1, true, 3, 2},
	// C = 1, 3, 8 and 16; F = 5, 8 and 16; OW = 13, 10, 18 and 11, which
	// leave one to three rows of four and end the gradient's transposes
	// in an overlapping tile; stride 2, SAME and VALID.
	{[]int{2, 13, 13, 16}, []int{3, 3, 16, 8}, 1, true, 13, 13},
	{[]int{1, 12, 19, 8}, []int{5, 5, 8, 16}, 2, true, 6, 10},
	{[]int{2, 15, 23, 3}, []int{3, 5, 3, 5}, 2, false, 7, 10},
	{[]int{1, 20, 22, 1}, []int{5, 5, 1, 16}, 1, false, 16, 18},
	{[]int{1, 11, 11, 8}, []int{3, 3, 8, 5}, 1, true, 11, 11},
}

// sparseFloats returns n normal values of which the given share are
// zeros, every other zero a negative one.
func sparseFloats(rng *rand.Rand, n int, zeroShare float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		switch {
		case rng.Float64() >= zeroShare:
			out[i] = float32(rng.NormFloat64())
		case i%2 == 1:
			out[i] = float32(math.Copysign(0, -1))
		}
	}
	return out
}

// forEachConvCase runs f on every convCases geometry, once with dense x
// and filter and once with a fifth of each zeros of either sign.
func forEachConvCase(t *testing.T, seed int64, f func(name string, g Geom, x, filter []float32, rng *rand.Rand)) {
	rng := rand.New(rand.NewSource(seed))
	for _, tc := range convCases {
		g, err := ConvGeom(tc.x, tc.filter, tc.stride, tc.same)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("conv %v*%v stride %d same=%v", tc.x, tc.filter, tc.stride, tc.same)
		if g.OH != tc.oh || g.OW != tc.ow {
			t.Fatalf("%s: output %dx%d, want %dx%d", name, g.OH, g.OW, tc.oh, tc.ow)
		}
		for _, zeros := range []float64{0, 0.2} {
			x := sparseFloats(rng, g.N*g.H*g.W*g.C, zeros)
			filter := sparseFloats(rng, g.KH*g.KW*g.C*g.F, zeros)
			f(fmt.Sprintf("%s, %.0f%% zero x", name, 100*zeros), g, x, filter, rng)
		}
	}
}

func TestConv2DInto(t *testing.T) {
	forEachConvCase(t, 2, func(name string, g Geom, x, filter []float32, rng *rand.Rand) {
		got := make([]float32, g.N*g.OH*g.OW*g.F)
		Conv2DInto(got, x, filter, g)
		bitEqual(t, name, got, refConv2D(x, filter, g))
	})
}

// TestConv2DGradientsMatchTheNests: the two GEMM-lowered gradients are
// bit-equal to the loop nests they replaced — on dense gradients, on
// gradients as sparse as the ones MaxPoolGrad and ReluGrad hand back, on
// gradients with whole rows of zeros, and with zeros of either sign in
// every operand.
func TestConv2DGradientsMatchTheNests(t *testing.T) {
	forEachConvCase(t, 8, func(name string, g Geom, x, filter []float32, rng *rand.Rand) {
		rows := g.N * g.OH * g.OW
		for _, zeros := range []float64{0, 0.8, 1} {
			grad := sparseFloats(rng, rows*g.F, zeros)
			if zeros == 1 {
				// Every other row all zero, the rest dense.
				for r := 0; r < rows; r += 2 {
					copy(grad[r*g.F:(r+1)*g.F], sparseFloats(rng, g.F, 0))
				}
			}
			what := fmt.Sprintf("%s, %.0f%% zero gradient", name, 100*zeros)

			dFilter := sparseFloats(rng, len(filter), 0) // overwritten, not accumulated into
			Conv2DGradFilterInto(dFilter, grad, x, g)
			bitEqual(t, what+": filter gradient", dFilter, refConv2DGradFilter(grad, x, g))

			dx := make([]float32, len(x))
			Conv2DGradInputInto(dx, grad, filter, g)
			bitEqual(t, what+": input gradient", dx, refConv2DGradInput(grad, filter, g))
		}
	})
}

// convWorkload is the CNN's second convolution at a small batch, with a
// gradient as sparse as training's.
func convWorkload(rng *rand.Rand, batch int) (g Geom, x, filter, grad []float32) {
	g, err := ConvGeom([]int{batch, 14, 14, 8}, []int{5, 5, 8, 16}, 1, true)
	if err != nil {
		panic(err)
	}
	x = sparseFloats(rng, g.N*g.H*g.W*g.C, 0.1)
	filter = sparseFloats(rng, g.KH*g.KW*g.C*g.F, 0)
	grad = sparseFloats(rng, g.N*g.OH*g.OW*g.F, 0.8)
	return g, x, filter, grad
}

// TestConvKernelsDoNotAllocate: tile, transposed filter and transposed
// gradient all come from the pool, so once it is warm a call allocates
// nothing, whatever the batch; the same holds for the filter gradient at
// both of train-sync's layers, and a transpose, fc1's 784×512 weights
// here, allocates nothing at all.
func TestConvKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := rand.New(rand.NewSource(6))
	g, x, filter, grad := convWorkload(rng, 4)
	out, dx, dFilter := make([]float32, len(grad)), make([]float32, len(x)), make([]float32, len(filter))
	type warm struct {
		name string
		run  func()
	}
	runs := []warm{{"a forward, filter-gradient and input-gradient call", func() {
		Conv2DInto(out, x, filter, g)
		Conv2DGradFilterInto(dFilter, grad, x, g)
		Conv2DGradInputInto(dx, grad, filter, g)
	}}}
	for _, l := range [][2][]int{{{50, 28, 28, 1}, {5, 5, 1, 8}}, {{50, 14, 14, 8}, {5, 5, 8, 16}}} {
		g, err := ConvGeom(l[0], l[1], 1, true)
		if err != nil {
			t.Fatal(err)
		}
		x, grad := sparseFloats(rng, g.N*g.H*g.W*g.C, 0.1), sparseFloats(rng, g.N*g.OH*g.OW*g.F, 0.8)
		dFilter := make([]float32, g.KH*g.KW*g.C*g.F)
		runs = append(runs, warm{fmt.Sprintf("a filter gradient over %v", l[0]), func() { Conv2DGradFilterInto(dFilter, grad, x, g) }})
	}
	w, wt := sparseFloats(rng, 784*512, 0), make([]float32, 784*512)
	runs = append(runs, warm{"a 784x512 transpose", func() { Transpose(wt, w, 784, 512) }})
	for _, r := range runs {
		r.run()
		if allocs := testing.AllocsPerRun(10, r.run); allocs != 0 {
			t.Errorf("%s, warm, made %v allocations, want 0", r.name, allocs)
		}
	}
}

// TestConvKernelsConcurrently: both training workers and every Lite
// replica of a process draw scratch from the one pool. Run under -race.
func TestConvKernelsConcurrently(t *testing.T) {
	g, x, filter, grad := convWorkload(rand.New(rand.NewSource(7)), 2)
	wantOut, wantDF, wantDX := refConv2D(x, filter, g), refConv2DGradFilter(grad, x, g), refConv2DGradInput(grad, filter, g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				out, dx, dFilter := make([]float32, len(grad)), make([]float32, len(x)), make([]float32, len(filter))
				Conv2DInto(out, x, filter, g)
				Conv2DGradFilterInto(dFilter, grad, x, g)
				Conv2DGradInputInto(dx, grad, filter, g)
				for _, c := range []struct{ got, want []float32 }{{out, wantOut}, {dFilter, wantDF}, {dx, wantDX}} {
					for j := range c.want {
						if math.Float32bits(c.got[j]) != math.Float32bits(c.want[j]) {
							t.Errorf("worker %d: element %d = %v, want %v", w, j, c.got[j], c.want[j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// refPool returns the max pool, its argmax and the average pool of x,
// scanning each window in (ky, kx) order.
func refPool(x []float32, g Geom) (maxv []float32, argmax []int32, avg []float32) {
	n := g.N * g.OH * g.OW * g.C
	maxv, argmax, avg = make([]float32, n), make([]int32, n), make([]float32, n)
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				for c := 0; c < g.C; c++ {
					best, bestIdx := float32(math.Inf(-1)), int32(-1)
					var sum float32
					var count int
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							iy, ix := oy*g.Stride+ky, ox*g.Stride+kx
							v := at(x, g, b, iy, ix, c)
							if v > best {
								best, bestIdx = v, int32(((b*g.H+iy)*g.W+ix)*g.C+c)
							}
							sum += v
							count++
						}
					}
					o := ((b*g.OH+oy)*g.OW+ox)*g.C + c
					maxv[o], argmax[o], avg[o] = best, bestIdx, sum/float32(count)
				}
			}
		}
	}
	return maxv, argmax, avg
}

func TestPool(t *testing.T) {
	cases := []struct {
		x         []int
		k, stride int
		oh, ow    int
	}{
		{[]int{2, 8, 8, 3}, 2, 2, 4, 4},
		{[]int{1, 7, 5, 2}, 3, 1, 5, 3},
		{[]int{1, 9, 9, 1}, 3, 2, 4, 4},
		{[]int{1, 8, 6, 2}, 3, 3, 2, 2}, // the last rows and columns are in no window
		{[]int{1, 3, 3, 2}, 3, 2, 1, 1}, // the window is the whole input
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range cases {
		g, err := PoolGeom(tc.x, tc.k, tc.stride)
		if err != nil {
			t.Fatal(err)
		}
		if g.OH != tc.oh || g.OW != tc.ow {
			t.Fatalf("pool %v k=%d stride=%d: output %dx%d, want %dx%d", tc.x, tc.k, tc.stride, g.OH, g.OW, tc.oh, tc.ow)
		}
		x := randFloats(rng, g.N*g.H*g.W*g.C)
		wantMax, wantArg, wantAvg := refPool(x, g)
		name := fmt.Sprintf("pool %v k=%d stride=%d", tc.x, tc.k, tc.stride)

		got := make([]float32, len(wantMax))
		MaxPool(got, x, g, nil)
		bitEqual(t, name+" max", got, wantMax)

		got = make([]float32, len(wantMax))
		argmax := make([]int32, len(wantMax))
		MaxPool(got, x, g, argmax)
		bitEqual(t, name+" max+argmax", got, wantMax)
		for i := range argmax {
			if argmax[i] != wantArg[i] {
				t.Fatalf("%s: argmax[%d] = %d, want %d", name, i, argmax[i], wantArg[i])
			}
		}

		got = make([]float32, len(wantAvg))
		AvgPool(got, x, g)
		bitEqual(t, name+" avg", got, wantAvg)
	}
}

func TestGeomRejects(t *testing.T) {
	if _, err := ConvGeom([]int{1, 2, 2, 1}, []int{5, 5, 1, 2}, 1, false); err == nil {
		t.Error("VALID conv with a 5x5 window over 2x2 accepted")
	}
	if _, err := ConvGeom([]int{1, 4, 4, 3}, []int{3, 3, 2, 2}, 1, true); err == nil {
		t.Error("conv with mismatched channels accepted")
	}
	if _, err := ConvGeom([]int{1, 4, 4, 1}, []int{3, 3, 1, 2}, 0, true); err == nil {
		t.Error("conv with stride 0 accepted")
	}
	if _, err := PoolGeom([]int{1, 2, 2, 2}, 8, 2); err == nil {
		t.Error("pool with an 8x8 window over 2x2 accepted")
	}
	// (3-4)/2+1 is 1 under Go's truncating division, and 1<<31 windows
	// of that kind would spin a pool loop for minutes.
	if _, err := PoolGeom([]int{1, 3, 3, 2}, 4, 2); err == nil {
		t.Error("pool with a 4x4 window over 3x3 accepted")
	}
	if _, err := PoolGeom([]int{4, 4}, 2, 2); err == nil {
		t.Error("pool over a rank-2 shape accepted")
	}
}

func TestBiasAddRelu(t *testing.T) {
	src := []float32{-1, 2, -3, 4, 5, -6}
	bias := []float32{0.5, -0.5, 1}
	dst := make([]float32, len(src))
	BiasAdd(dst, src, bias)
	bitEqual(t, "biasadd", dst, []float32{-0.5, 1.5, -2, 4.5, 4.5, -5})
	BiasAdd(src, src, bias) // in place
	bitEqual(t, "biasadd in place", src, dst)

	negZero := float32(math.Copysign(0, -1))
	Relu(dst, []float32{-0.5, 1.5, negZero, float32(math.NaN()), 0, float32(math.Inf(1))})
	bitEqual(t, "relu", dst, []float32{0, 1.5, 0, 0, 0, float32(math.Inf(1))})
}

// specialFloats is every class of float32 a comparison can get wrong:
// NaNs of either sign and with payloads, zeros and infinities of either
// sign, subnormals, the extremes of the normal range and ordinary values.
func specialFloats() []float32 {
	var out []float32
	for _, b := range []uint32{
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, // NaNs
		0x00000000, 0x80000000, 0x7f800000, 0xff800000, // ±0, ±Inf
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest and largest normals
		0x3f800000, 0xbf800000, 0x3e4ccccd, 0xc2f60000, // ±1, 0.2, -123
	} {
		out = append(out, math.Float32frombits(b))
	}
	return out
}

// TestReluMatchesBranch holds Relu and ReluGrad to the branching loops
// they replaced, bit for bit, on every pair of special values and on
// random ones, writing to a fresh dst and in place.
func TestReluMatchesBranch(t *testing.T) {
	special := specialFloats()
	var x, g []float32
	for _, a := range special {
		for _, b := range special {
			x, g = append(x, a), append(g, b)
		}
	}
	rng := rand.New(rand.NewSource(12))
	x, g = append(x, randFloats(rng, 1000)...), append(g, randFloats(rng, 1000)...)

	wantRelu, wantGrad := make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		if v > 0 {
			wantRelu[i], wantGrad[i] = v, g[i]
		}
	}

	got := make([]float32, len(x))
	Relu(got, x)
	bitEqual(t, "relu", got, wantRelu)
	got = append([]float32(nil), x...)
	Relu(got, got)
	bitEqual(t, "relu in place", got, wantRelu)

	got = make([]float32, len(x))
	ReluGrad(got, g, x)
	bitEqual(t, "relu grad", got, wantGrad)
	got = append([]float32(nil), g...)
	ReluGrad(got, got, x)
	bitEqual(t, "relu grad into g", got, wantGrad)
	got = append([]float32(nil), x...)
	ReluGrad(got, g, got)
	bitEqual(t, "relu grad into x", got, wantGrad)
}

// TestMaxPoolFastPathMatchesGeneric: the 2×2 stride-2 path returns the
// generic loop's values and argmax bit for bit — with and without an
// argmax, at channel counts 1, 8 and 16, odd and even extents, and on
// inputs made of the special values, where ties (±0 among them), NaNs and
// windows of -Inf decide which candidate wins.
func TestMaxPoolFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	special := specialFloats()
	negInf := float32(math.Inf(-1))
	// Each input but the random one draws its values from its set.
	inputs := []struct {
		name string
		set  []float32
	}{
		{"random", nil},
		{"special", special},
		{"ties", []float32{1, 1, 0, float32(math.Copysign(0, -1)), negInf}},
		{"nan or -inf", []float32{negInf, float32(math.NaN())}},
	}
	for _, c := range []int{1, 8, 16} {
		for _, hw := range [][2]int{{2, 2}, {4, 6}, {5, 7}, {7, 4}} {
			g, err := PoolGeom([]int{3, hw[0], hw[1], c}, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inputs {
				name, x := in.name, randFloats(rng, g.N*g.H*g.W*g.C)
				if in.set != nil {
					for i := range x {
						x[i] = in.set[rng.Intn(len(in.set))]
					}
				}
				if name == "nan or -inf" {
					// The first window holds -Inf alone.
					for i := 0; i < g.C; i++ {
						x[i], x[g.C+i], x[g.W*g.C+i], x[(g.W+1)*g.C+i] = negInf, negInf, negInf, negInf
					}
				}
				what := fmt.Sprintf("%v, %s", []int{g.N, g.H, g.W, g.C}, name)
				n := g.N * g.OH * g.OW * g.C
				want, wantArg := make([]float32, n), make([]int32, n)
				maxPoolGeneric(want, x, g, wantArg)
				got, gotArg := make([]float32, n), make([]int32, n)
				MaxPool(got, x, g, gotArg)
				bitEqual(t, what, got, want)
				for i := range wantArg {
					if gotArg[i] != wantArg[i] {
						t.Fatalf("%s: argmax[%d] = %d, want %d", what, i, gotArg[i], wantArg[i])
					}
				}
				got = make([]float32, n)
				MaxPool(got, x, g, nil)
				bitEqual(t, what+", no argmax", got, want)
			}
		}
	}
}

// TestApplySGDMatchesWhatItReplaced keeps the four update loops ApplySGD
// took the place of, as they were written, and requires its bits of
// each: the session's ApplySGD kernel, the parameter server's async
// apply and averaged commit (whose lr·inv ApplySGD's caller now
// multiplies once, outside the loop) and the federated local step.
func TestApplySGDMatchesWhatItReplaced(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := float32(math.Copysign(0, -1))
	denormal := math.Float32frombits(1)
	inputs := map[string]func(i int) float32{
		"random":   func(int) float32 { return float32(rng.NormFloat64()) },
		"denormal": func(i int) float32 { return denormal * float32(1+i%7) },
		"zeros":    func(i int) float32 { return []float32{0, negZero}[i%2] },
		"large":    func(i int) float32 { return float32(rng.NormFloat64()) * math.MaxFloat32 / 2 },
	}
	const lr64, workers = 0.0005, 3
	oracles := []struct {
		name string
		a    float32
		loop func(v, g []float32)
	}{
		{"session kernel", float32(lr64), func(v, g []float32) {
			lr := float32(lr64)
			for i, g := range g {
				v[i] -= float32(lr * g)
			}
		}},
		{"async apply", float32(lr64) / float32(workers), func(v, src []float32) {
			scale := float32(lr64) / float32(workers)
			for i := range v {
				v[i] -= float32(scale * src[i])
			}
		}},
		{"averaged commit", float32(lr64) * (float32(1) / float32(workers)), func(v, g []float32) {
			inv := float32(1) / float32(workers)
			lr := float32(lr64)
			for i := range v {
				v[i] -= float32(lr * inv * g[i])
			}
		}},
		{"federated local step", float32(lr64), func(vals, g []float32) {
			for j := range vals {
				vals[j] -= float32(float32(lr64) * g[j])
			}
		}},
	}
	for vname, vgen := range inputs {
		for gname, ggen := range inputs {
			v, g := make([]float32, 257), make([]float32, 257)
			for i := range v {
				v[i], g[i] = vgen(i), ggen(i)
			}
			for _, o := range oracles {
				want, got := append([]float32(nil), v...), append([]float32(nil), v...)
				o.loop(want, g)
				ApplySGD(got, g, o.a)
				bitEqual(t, fmt.Sprintf("%s, %s variables, %s gradients", o.name, vname, gname), got, want)
			}
		}
	}
}

func refSoftmax(row []float32) []float32 {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		maxv = float32(math.Max(float64(maxv), float64(v)))
	}
	exps := make([]float64, len(row))
	var sum float64
	for i, v := range row {
		exps[i] = math.Exp(float64(v - maxv))
		sum += exps[i]
	}
	out := make([]float32, len(row))
	for i, e := range exps {
		out[i] = float32(e) * float32(1/sum)
	}
	return out
}

func TestSoftmaxAndArgMaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, cols = 5, 7
	src := randFloats(rng, rows*cols)
	src[2*cols+1], src[2*cols+4] = 9, 9 // a tie: the first maximum wins

	got := make([]float32, len(src))
	if err := SoftmaxRows(got, src, cols); err != nil {
		t.Fatal(err)
	}
	classes := make([]int32, rows)
	if err := ArgMaxRows(classes, src, cols); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		bitEqual(t, fmt.Sprintf("softmax row %d", r), got[r*cols:(r+1)*cols], refSoftmax(row))
		want := 0
		for c := range row {
			if row[c] > row[want] {
				want = c
			}
		}
		if int(classes[r]) != want {
			t.Fatalf("argmax row %d = %d, want %d", r, classes[r], want)
		}
	}
	if classes[2] != 1 {
		t.Fatalf("argmax of a tie = %d, want the first maximum 1", classes[2])
	}

	if err := SoftmaxRows(got, src, 0); err == nil {
		t.Error("softmax over 0 columns accepted")
	}
	if err := ArgMaxRows(make([]int, 1), src, 0); err == nil {
		t.Error("argmax over 0 columns accepted")
	}
}

func TestRowsCols(t *testing.T) {
	cases := []struct {
		shape      []int
		rows, cols int
	}{
		{[]int{4, 10}, 4, 10},
		{[]int{2, 3, 5}, 6, 5},
		{[]int{7}, 1, 7},
		{[]int{}, 0, 0},
		{[]int{3, 0}, 0, 0},
	}
	for _, tc := range cases {
		if rows, cols := RowsCols(tc.shape); rows != tc.rows || cols != tc.cols {
			t.Errorf("RowsCols(%v) = %d, %d, want %d, %d", tc.shape, rows, cols, tc.rows, tc.cols)
		}
	}
}

// BenchmarkKernels times the kernels at the shapes the benchmark's
// workloads run them at. These rows are the reference the next kernel
// change has to beat; a fast path against its twin is BenchmarkTwins'.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	// The GEMMs of gemmShapes (matmul_test.go).
	for _, s := range gemmShapes {
		ld := s.strides()
		a, w := sparseFloats(rng, extent(s.m, s.k, ld.a), s.zeros), sparseFloats(rng, extent(s.k, s.n, ld.b), 0)
		c := make([]float32, extent(s.m, s.n, ld.c))
		matmul := func(run func()) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clear(c)
					run()
				}
			}
		}
		b.Run("matmul/"+s.name, matmul(func() { gemm(c, a, w, 0, s.m, s.k, s.n, ld.a, ld.b, ld.c) }))
		if s.m == 1 {
			// The row above cannot show the column split: repeated, its
			// 16 MiB stay hot in the cache, where a split times no
			// faster. densenet_b1 below streams the whole model, as
			// serving does.
			//
			// serve-steady's GEMV again on a dense and on a half-zero
			// input: the pair's ratio is how far the zero skip lets an
			// input's values move the time of a served request.
			twins := rand.New(rand.NewSource(6))
			for _, in := range []struct {
				name  string
				zeros float64
			}{{"_dense", 0}, {"_50pct_zero", 0.5}} {
				a := sparseFloats(twins, s.k, in.zeros)
				b.Run("matmul/"+s.name+in.name, matmul(func() { gemm(c, a, w, 0, s.m, s.k, s.n, ld.a, ld.b, ld.c) }))
			}
		}
	}

	// serve-steady's request as the interpreter runs it: the three
	// FullyConnected layers, ReLU between them, over all 42 MB of
	// weights, split by columns on the device's four threads, and its
	// _t1 twin on one. Cycling the whole model keeps it out of the cache.
	widths := []int{2048, 2048, 2048, 1000}
	weights, acts := make([][]float32, len(widths)-1), make([][]float32, len(widths))
	acts[0] = sparseFloats(rng, widths[0], 0)
	for l := range weights {
		weights[l], acts[l+1] = sparseFloats(rng, widths[l]*widths[l+1], 0), make([]float32, widths[l+1])
	}
	densenet := func(threads int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for l, w := range weights {
					out := acts[l+1]
					clear(out)
					MatMulInto(out, acts[l], w, 1, widths[l], widths[l+1], threads)
					if l+1 < len(weights) {
						Relu(out, out)
					}
				}
			}
		}
	}
	b.Run("matmul/serve-steady/densenet_b1", densenet(4))
	b.Run("matmul/serve-steady/densenet_b1_t1", densenet(1))

	// train-sync: the CNN's two convolutions and both gradients of each.
	// The first reads digit images, three quarters background zeros; the
	// second reads activations a tenth zero; the output gradient is four
	// fifths zero, which is what MaxPoolGrad and ReluGrad hand back.
	for _, l := range []struct {
		name      string
		x, filter []int
		xZeros    float64
	}{
		{"50x28x28x1_k5_f8_same", []int{50, 28, 28, 1}, []int{5, 5, 1, 8}, 0.75},
		{"50x14x14x8_k5_f16_same", []int{50, 14, 14, 8}, []int{5, 5, 8, 16}, 0.1},
	} {
		g, err := ConvGeom(l.x, l.filter, 1, true)
		if err != nil {
			b.Fatal(err)
		}
		x, f := sparseFloats(rng, g.N*g.H*g.W*g.C, l.xZeros), sparseFloats(rng, g.KH*g.KW*g.C*g.F, 0)
		grad := sparseFloats(rng, g.N*g.OH*g.OW*g.F, 0.8)
		out, dx, df := make([]float32, len(grad)), make([]float32, len(x)), make([]float32, len(f))
		conv := func(run func()) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			}
		}
		b.Run("conv2d/train-sync/"+l.name, conv(func() { clear(out); Conv2DInto(out, x, f, g) }))
		b.Run("conv2d_grad_filter/train-sync/"+l.name, conv(func() { Conv2DGradFilterInto(df, grad, x, g) }))
		b.Run("conv2d_grad_input/train-sync/"+l.name, conv(func() { clear(dx); Conv2DGradInputInto(dx, grad, f, g) }))
	}
	// The element-wise loops at train-sync's shapes.
	loop := func(run func()) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		}
	}
	// The CNN's two pools, and pool1's gradient.
	for _, shape := range [][]int{{50, 28, 28, 8}, {50, 14, 14, 16}} {
		g, err := PoolGeom(shape, 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		x := randFloats(rng, g.N*g.H*g.W*g.C)
		out := make([]float32, g.N*g.OH*g.OW*g.C)
		argmax := make([]int32, len(out))
		name := fmt.Sprintf("train-sync/%dx%dx%dx%d_k2", g.N, g.H, g.W, g.C)
		b.Run("maxpool/"+name, loop(func() { MaxPool(out, x, g, argmax) }))
		if g.H == 28 {
			MaxPool(out, x, g, argmax)
			grad, dx := sparseFloats(rng, len(out), 0.1), make([]float32, len(x))
			b.Run("maxpool_grad/"+name, loop(func() {
				if err := MaxPoolGrad(dx, grad, argmax, g); err != nil {
					b.Fatal(err)
				}
			}))
		}
	}
	// conv1's activations, Gaussian and then four fifths zero: equal times
	// are what says that Relu's and ReluGrad's do not depend on values.
	for _, in := range []struct {
		name  string
		zeros float64
	}{{"", 0}, {"_80pct_zero", 0.8}} {
		x, grad := sparseFloats(rng, 50*28*28*8, in.zeros), sparseFloats(rng, 50*28*28*8, 0.8)
		out := make([]float32, len(x))
		b.Run("relu/train-sync/50x28x28x8"+in.name, loop(func() { Relu(out, x) }))
		if in.zeros == 0 {
			b.Run("relu_grad/train-sync/50x28x28x8", loop(func() { ReluGrad(out, grad, x) }))
		}
	}
	// conv1's bias and its gradient.
	{
		x, bias := sparseFloats(rng, 50*28*28*8, 0), sparseFloats(rng, 8, 0)
		out, dBias := make([]float32, len(x)), make([]float32, len(bias))
		b.Run("bias_add/train-sync/50x28x28x8", loop(func() { BiasAdd(out, x, bias) }))
		// The fused pass the session runs in place of BiasAdd then Relu,
		// and those two passes, in place as the session runs them.
		b.Run("bias_relu/train-sync/50x28x28x8", loop(func() { BiasRelu(out, x, bias) }))
		b.Run("bias_relu/train-sync/50x28x28x8_two_passes", loop(func() { BiasAdd(out, x, bias); Relu(out, out) }))
		b.Run("bias_add_grad/train-sync/50x28x28x8", loop(func() {
			if err := BiasAddGrad(dBias, x, 8); err != nil {
				b.Fatal(err)
			}
		}))
	}
	// conv2's input gradient scattering its dcol tiles, as
	// Conv2DGradInputInto does, one tile of values reused for every one.
	{
		g, err := ConvGeom([]int{50, 14, 14, 8}, []int{5, 5, 8, 16}, 1, true)
		if err != nil {
			b.Fatal(err)
		}
		rows, k, step := g.tiling()
		tile, grad := sparseFloats(rng, step*k, 0), sparseFloats(rng, rows*g.F, 0.8)
		dx := make([]float32, g.N*g.H*g.W*g.C)
		b.Run("col2im_add/train-sync/50x14x14x8_k5_f16_same", loop(func() {
			for r0 := 0; r0 < rows; r0 += step {
				r1 := min(r0+step, rows)
				g.col2imAdd(dx, tile, grad[r0*g.F:r1*g.F], r0, r1)
			}
		}))
	}
	// fc1's weights transposed, as the session's MatMul does for both of
	// its gradients every step.
	{
		const m, n = 784, 512
		src, dst := randFloats(rng, m*n), randFloats(rng, m*n)
		b.Run("transpose/train-sync/784x512", loop(func() { Transpose(dst, src, m, n) }))
	}
	b.Run("softmax/serve-steady/1x1000", func(b *testing.B) {
		x := randFloats(rng, 1000)
		out := make([]float32, len(x))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := SoftmaxRows(out, x, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
