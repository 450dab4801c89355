package kernels

import (
	"math/rand"
	"os"
	"testing"

	"github.com/securetf/securetf/internal/cpu"
	"github.com/securetf/securetf/internal/twintest"
)

// repeat runs f n times: a routine called once per line or window of a
// training step is timed over a step's calls.
func repeat(n int, f func()) func() {
	return func() {
		for range n {
			f()
		}
	}
}

// gemmOperands draws a, b and c for s.
func gemmOperands(rng *rand.Rand, s gemmShape) (c, a, b []float32, ld strides) {
	ld = s.strides()
	a, b = sparseFloats(rng, extent(s.m, s.k, ld.a), s.zeros), sparseFloats(rng, extent(s.k, s.n, ld.b), 0)
	return make([]float32, extent(s.m, s.n, ld.c)), a, b, ld
}

func shape(name string) gemmShape {
	for _, s := range gemmShapes {
		if s.name == name {
			return s
		}
	}
	panic("no gemm shape " + name)
}

// conv2Lines is train-sync's conv2 forward, 50 images of 14 lines, each
// a gemm of 14 windows per filter row: rows 0 to 11 run four at a time,
// 12 and 13 as the tail.
const conv2Lines = 50 * 14 * 5

// twins are the package's fast paths at the shapes train-sync runs them
// at: every compute routine of its assembly has exactly one row
// (TestAssemblyContract), and so has each Go fast path CI gates.
var twins = []twintest.Row{
	{Name: "matmul/train-sync/m50_k784_n512", Routine: "matMulAxpyAVX", Needs: cpu.AVX, Floor: 2, Setup: func(rng *rand.Rand) (func(), func()) {
		s := shape("train-sync/m50_k784_n512")
		c, a, b, ld := gemmOperands(rng, s)
		return func() { clear(c); gemm(c, a, b, 0, s.m, s.k, s.n, ld.a, ld.b, ld.c) },
			func() { clear(c); matMulRowsGo(c, a, b, 0, s.m, s.k, s.n, ld.a, ld.b, ld.c) }
	}},
	{Name: "matmul_rows4/train-sync/conv2_line_m12_k40_n16_lda8", Routine: "matMulRows4AVX", Needs: cpu.AVX, Floor: 0, Setup: func(rng *rand.Rand) (func(), func()) {
		s := shape("train-sync/conv2_line_m14_k40_n16_lda8")
		c, a, b, ld := gemmOperands(rng, s)
		return repeat(conv2Lines, func() { matMulRows4AVX(c, a, b, 12, s.k, s.n, ld.a, ld.b, ld.c) }),
			repeat(conv2Lines, func() { matMulAxpyAVX(c, a, b, 12, s.k, s.n, ld.a, ld.b, ld.c) })
	}},
	{Name: "matmul_tail/train-sync/conv2_line_m2_k40_n16_lda8", Routine: "matMulRowsTailAVX", Needs: cpu.AVX, Floor: 0, Setup: func(rng *rand.Rand) (func(), func()) {
		s := shape("train-sync/conv2_line_m14_k40_n16_lda8")
		c, a, b, ld := gemmOperands(rng, s)
		c, a = c[12*ld.c:], a[12*ld.a:]
		return repeat(conv2Lines, func() { matMulRowsTailAVX(c, a, b, 2, s.k, s.n, ld.a, ld.b, ld.c) }),
			repeat(conv2Lines, func() { matMulAxpyAVX(c, a, b, 2, s.k, s.n, ld.a, ld.b, ld.c) })
	}},
	{Name: "transpose/train-sync/784x512", Routine: "transposeAVX", Needs: cpu.AVX, Floor: 1.5, Setup: func(rng *rand.Rand) (func(), func()) {
		const m, n = 784, 512
		src, dst := randFloats(rng, m*n), randFloats(rng, m*n)
		return func() { Transpose(dst, src, m, n) }, func() { transposeGo(dst, src, m, n, n, m) }
	}},
	{Name: "copy_runs/train-sync/conv2_band_14x8", Routine: "copyRunsAVX", Needs: cpu.AVX, Floor: 0, Setup: func(rng *rand.Rand) (func(), func()) {
		// A conv2 filter gradient's band line: 14 pixels of 8 floats to
		// runs 5·8 apart, 50·14·5 times a step.
		src, dst := randFloats(rng, 14*8), make([]float32, 14*40)
		return repeat(conv2Lines, func() { copyRuns(dst, src, 8, 14, 40, 8) }),
			repeat(conv2Lines, func() { copyRunsGo(dst, src, 8, 14, 40, 8) })
	}},
	{Name: "add_runs/train-sync/conv2_col2im_5x40", Routine: "addRunsAVX", Needs: cpu.AVX, Floor: 0, Setup: func(rng *rand.Rand) (func(), func()) {
		// A conv2 input gradient's dcol row onto its window: five runs
		// of 5·8 floats, one per input row 14·8 apart, once per output.
		src, dst := randFloats(rng, 5*40), randFloats(rng, 4*112+40)
		return repeat(50*14*14, func() { addRuns(dst, src, 40, 5, 112, 40) }),
			repeat(50*14*14, func() { addRunsGo(dst, src, 40, 5, 112, 40) })
	}},
	{Name: "relu/train-sync/50x28x28x8", Routine: "reluGradAVX", Needs: cpu.AVX, Floor: 2, Setup: func(rng *rand.Rand) (func(), func()) {
		x := sparseFloats(rng, 50*28*28*8, 0)
		out := make([]float32, len(x))
		return func() { Relu(out, x) }, func() { reluGradGo(out, x, x) }
	}},
	{Name: "bias_add/train-sync/50x28x28x8", Routine: "biasAddAVX", Needs: cpu.AVX, Floor: 0, Setup: func(rng *rand.Rand) (func(), func()) {
		x, bias := sparseFloats(rng, 50*28*28*8, 0), sparseFloats(rng, 8, 0)
		out := make([]float32, len(x))
		return func() { BiasAdd(out, x, bias) }, func() { biasAddGo(out, x, bias) }
	}},
	{Name: "maxpool/train-sync/50x28x28x8_k2", Routine: "maxPool2x2AVX2", Needs: cpu.AVX2, Floor: 2, Setup: func(rng *rand.Rand) (func(), func()) {
		g, x, out, argmax := pool1(rng)
		return func() { MaxPool(out, x, g, argmax) }, func() { maxPool2x2Go(out, x, g, argmax, 0) }
	}},
	{Name: "maxpool_grad/train-sync/50x28x28x8_k2", Routine: "maxPoolGrad2x2AVX2", Needs: cpu.AVX2, Floor: 0, Setup: func(rng *rand.Rand) (func(), func()) {
		// Kept for more than its time: it writes every window position,
		// where the scatter writes only where argmax points. Neither call
		// can fail: the argmax is MaxPool's, over dx's shape.
		g, x, out, argmax := pool1(rng)
		MaxPool(out, x, g, argmax)
		grad, dx := sparseFloats(rng, len(out), 0.1), make([]float32, len(x))
		return func() { _ = MaxPoolGrad(dx, grad, argmax, g) }, func() { _ = maxPoolGradScatter(dx, grad, argmax) }
	}},
	{Name: "maxpool_2x2/train-sync/50x28x28x8_k2", Needs: true, Floor: 1.5, Setup: func(rng *rand.Rand) (func(), func()) {
		g, x, out, argmax := pool1(rng)
		return func() { MaxPool(out, x, g, argmax) }, func() { maxPoolGeneric(out, x, g, argmax) }
	}},
	{Name: "conv2d_in_place/train-sync/50x28x28x1_k5_f8_same", Needs: cpu.AVX, Floor: 1.5, Setup: func(rng *rand.Rand) (func(), func()) {
		// conv1 reading its windows where they lie, against gathering
		// them (im2col); its input is digit images, three quarters zero.
		g, x, f := convLayer(rng, []int{50, 28, 28, 1}, []int{5, 5, 1, 8}, 0.75)
		out := make([]float32, g.N*g.OH*g.OW*g.F)
		return func() { clear(out); Conv2DInto(out, x, f, g) }, func() { clear(out); im2colConv2D(out, x, f, g) }
	}},
	{Name: "conv2d_grad_filter_in_place/train-sync/50x14x14x8_k5_f16_same", Needs: true, Floor: 0, Setup: func(rng *rand.Rand) (func(), func()) {
		// conv2's filter gradient reading its input's windows where they
		// lie, against gathering them; the output gradient is four fifths
		// zero, as MaxPoolGrad and ReluGrad hand it back.
		g, x, df := convLayer(rng, []int{50, 14, 14, 8}, []int{5, 5, 8, 16}, 0.1)
		grad := sparseFloats(rng, g.N*g.OH*g.OW*g.F, 0.8)
		return func() { Conv2DGradFilterInto(df, grad, x, g) }, func() { im2colConv2DGradFilter(df, grad, x, g) }
	}},
}

// convLayer is a train-sync convolution's geometry, an input with the
// given share of zeros, and a filter.
func convLayer(rng *rand.Rand, x, filter []int, zeros float64) (Geom, []float32, []float32) {
	g, err := ConvGeom(x, filter, 1, true)
	if err != nil {
		panic(err)
	}
	return g, sparseFloats(rng, g.N*g.H*g.W*g.C, zeros), sparseFloats(rng, g.KH*g.KW*g.C*g.F, 0)
}

// pool1 is train-sync's first pool: its geometry, input, output and
// argmax.
func pool1(rng *rand.Rand) (Geom, []float32, []float32, []int32) {
	g, err := PoolGeom([]int{50, 28, 28, 8}, 2, 2)
	if err != nil {
		panic(err)
	}
	n := g.N * g.OH * g.OW * g.C
	return g, randFloats(rng, g.N*g.H*g.W*g.C), make([]float32, n), make([]int32, n)
}

// BenchmarkTwins times each row's fast path against its twin.
func BenchmarkTwins(b *testing.B) { twintest.Bench(b, twins) }

// TestAssemblyContract holds the package's assembly to the twins table.
func TestAssemblyContract(t *testing.T) { twintest.Contract(t, os.DirFS("."), twins) }
