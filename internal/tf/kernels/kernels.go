// Package kernels is the one kernel library under both engines: the tf
// session (internal/tf) runs its forward loops and its convolution, max
// pool, bias and ReLU gradients, the Lite interpreter (internal/tflite)
// its forward loops, and neither has others.
//
// The kernels read and write caller-owned float32 slices in row-major
// (NHWC) layout and know nothing of tensors, devices or clocks. Charging
// the cost model for the work stays with the engine that called
// (execCtx.charge, Interpreter.charge), so a kernel change cannot move
// virtual time. The convolutions read their windows where they lie
// (conv.go) and draw their working memory — one image, padded or
// banded, the filter and one image's output gradient transposed, the
// filter gradient transposed, and the input gradient's tile of dcol
// rows — from a process-wide free list (par.Free), so once it is warm no
// call allocates anything, and nothing a call does allocate is sized by
// the batch; every other kernel allocates nothing at all (MatMulInto,
// which splits its work on internal/par, nothing once warm but now and
// then a parked helper's wait record).
//
// Every transposition is one routine, transpose, at row strides:
// Transpose (the session's transposed MatMul operands, the input
// gradient's filter), the filter gradient's output gradient, a line at a
// time, and its final (kx, ky, c) to (ky, kx, c) reorder. Where the CPU
// has AVX and both sides are eight or more it runs in 8×8 register tiles
// (transpose_amd64.s), a side that is not a multiple of eight ending in a
// tile that overlaps the one before; elsewhere it is its Go loop. The
// band's C-wide runs are copied whole (copyRuns). Both only move bits,
// so no float changes on the way, a NaN's payload included.
//
// The arithmetic of every output element is fixed: which products are
// added to it, in what order, each product rounded to float32 and then
// each sum rounded to float32. It does not depend on the thread count,
// tile size, pool state or CPU, because threads and tiles only partition
// the output, threads into blocks of whole columns and tiles into rows,
// and a vector lane is one output column: MatMulInto's loop (gemm, under
// every convolution too) runs eight columns j to an AVX
// register where the CPU has AVX and as the scalar matMulRowsGo
// elsewhere (other architectures, amd64 without AVX), and nothing but
// the CPU chooses. gemm reads its operands at row strides, BLAS's
// leading dimensions: row i of a starts at a[i·lda], row kk of b at
// b[kk·ldb] and row i of c at c[i·ldc]. Rows of a and b may overlap,
// which is how a convolution multiplies its windows in place; ldc ≥ n
// keeps the rows of c apart. Within a lane the operations are the scalar
// loop's, in its order; no value crosses lanes. A fused multiply-add is
// forbidden in both: it rounds once where the contract rounds twice, so
// the assembly uses VMULPS then VADDPS, never VFMADD, and Go code that
// feeds a pinned value writes float32(a*b) + c, the explicit conversion
// being what stops the compiler fusing on arm64, ppc64 and s390x (CI
// greps an arm64 build for fused instructions). The golden-pinned
// training trajectories and interpreter outputs hold as long as a
// faster kernel keeps these orders:
//
//   - MatMulInto: c[i,j] accumulates a[i,kk]·b[kk,j] over kk ascending;
//     a zero a[i,kk] is skipped.
//   - Conv2DInto: dst[r,f] accumulates col[r,kk]·filter[kk,f] over
//     kk = (ky, kx, c) ascending; a zero col[r,kk], padding or
//     activation, is skipped.
//   - Conv2DGradFilterInto: dFilter[kk,f] sums gradOut[r,f]·col[r,kk] over
//     output rows r = (b, oy, ox) ascending from +0; a zero gradOut[r,f]
//     is skipped. That is the operand worth skipping: behind MaxPoolGrad
//     and ReluGrad four fifths of it is zero, against a tenth of the
//     hidden activations.
//   - Conv2DGradInputInto: dcol[r,kk] sums gradOut[r,f]·filter[kk,f] over
//     f ascending from +0, a zero gradOut[r,f] skipped, and dx[i] sums
//     the dcol[r,kk] gathered from it over r ascending from +0; a row r
//     whose gradOut is all zero is skipped whole. A dcol row's entries
//     under one input row of its window are one run, added into dx
//     element by element (col2imAdd).
//   - MaxPool, AvgPool: each window in (ky, kx) order, MaxPool's
//     candidate replacing the maximum only if strictly greater, so the
//     first maximum wins and a NaN never does; its 2×2 stride-2 fast
//     path keeps that order and that comparison. SoftmaxRows and
//     ArgMaxRows left to right, the first maximum winning.
//   - MaxPoolGrad: dx[i] is +0 + grad[o] for the output o whose argmax
//     is i, and +0 where there is none. The 2×2 stride-2 windows do not
//     overlap, so no element has two; any other pool's scatter adds
//     them in o order from +0.
//   - BiasAddGrad: each channel sums its rows in ascending order from +0.
//   - ApplySGD: v[i] loses a·g[i], the product rounded before it is
//     subtracted.
//
// Relu, ReluGrad, BiasAdd, BiasAddGrad, col2imAdd's run adds and the 2×2
// MaxPool and MaxPoolGrad run eight lanes at a time in AVX assembly
// (elementwise_amd64.s) where the CPU has it — AVX2 for the two pool
// loops, whose argmax lanes add and compare integers — and as their Go
// loops elsewhere, chosen as gemm's are, by the CPU alone. MaxPoolGrad's
// Go loop is the scatter, which its 2×2 lanes also leave to a channel
// count that is not a multiple of eight. A lane is one
// element or one channel, and every output keeps its bits, with one
// exception outside the contract: where an add meets two NaNs, which
// payload survives is not pinned, since Go fixes no operand order for +.
// BiasRelu, the session's BiasAdd and Relu folded into one pass, has no
// loop of its own: it runs BiasAdd's and then Relu's over blocks that
// stay in L1, so its bits are theirs, and Relu maps every NaN a sum
// leaves to +0.
//
// None of these loops branches on a value, and nor do the transposes
// and run copies, whose branches are on shapes. The Go loops compare
// through integer keys of the floats' bits (key, gtMask) and select with
// the resulting mask; the vector loops compare with VCMPPS GT_OQ, which
// is false for a NaN and for ±0 against ±0 as Go's > is, and select with
// VANDPS or VBLENDVPS. Their time does not depend on the data and a
// predictor has no coin to flip. The zero skips of the GEMM loops above,
// and of a zero output gradient's dcol row, still branch: the streaming
// kernel on each a[i,kk], and the kernels that hold a narrow product's
// rows in registers, four or the last one to three at a time, on each
// row's own a[i,kk]. So does MaxPoolGrad's scatter on its argmax of -1.
//
// Which operand's zeros are skipped is free to change between versions,
// on finite operands: an accumulator that starts at +0 can never become
// -0 (x + -x and +0 + -0 are both +0 under round-to-nearest), so adding
// a product that is ±0 and skipping it leave the same bits. The two
// differ only where the other factor is infinite or NaN — 0·Inf is NaN —
// so a model with non-finite weights or activations is outside the
// bit-identity contract, though not outside the kernels' domain.
package kernels

import (
	"fmt"
	"math"
	"runtime"

	"github.com/securetf/securetf/internal/par"
)

// MatMulInto accumulates A×B into c, where a is [m,k], b is [k,n] and c
// is a zeroed [m,n]. splitPlan decides whether the work is split into
// column blocks, which run on par.Run; once warm a split call allocates
// nothing but, now and then, the runtime's record for a parked helper's
// wait (96 B).
//
// The shape is checked against the slices once, here: one too short for
// it panics, as indexing past its end would, before any element of c is
// written.
func MatMulInto(c, a, b []float32, m, k, n, threads int) {
	if m < 0 || k < 0 || n < 0 || len(c) < m*n || len(a) < m*k || len(b) < k*n {
		panic(fmt.Sprintf("kernels: matmul [%d,%d]x[%d,%d] into [%d,%d] on slices of %d, %d and %d elements", m, k, k, n, m, n, len(a), len(b), len(c)))
	}
	if m == 0 || k == 0 || n == 0 {
		return
	}
	procs := 1
	if threads >= 2 { // GOMAXPROCS takes the scheduler's lock
		procs = runtime.GOMAXPROCS(0)
	}
	cols := splitPlan(m, k, n, threads, procs)
	if cols >= n { // one piece
		matMulRows(c, a, b, 0, m, k, n)
		return
	}
	p := matMuls.Get()
	*p = matMul{c, a, b, m, k, n, cols}
	par.Run(p, (n+cols-1)/cols, threads)
	*p = matMul{} // hold no caller's memory while free
	matMuls.Put(p)
}

const (
	// lineFloats is the float32s of a 64-byte cache line. Column blocks
	// are whole lines, so two blocks of an aligned c share none.
	lineFloats = 16
	// colSplitMin is the size of b, in elements (4 MiB), from which a
	// product of few rows is split by columns: streaming b from memory
	// is then its cost, and one core does not saturate the bandwidth. A
	// smaller b stays in cache, where the handoff costs more than the
	// half it saves.
	colSplitMin = 1 << 20
)

// splitPlan is the width of the column blocks, whole cache lines, into
// which MatMulInto divides an m·k·n product among up to threads
// goroutines on procs processors. It splits only a product of fewer than
// 2·threads rows over a b of colSplitMin elements or more, into one block
// per thread and at most one per processor; anything else is one block,
// n wide. A block computes its elements of c exactly as one piece would:
// a vector lane is one output column.
//
// Measured on two vCPUs with the AVX kernels: split, serve-steady's
// unbatched 2048-2048-2048-1000 stack, 42 MB a request, went from 1212
// to 953 µs a pass (BenchmarkKernels/matmul/serve-steady/densenet_b1 and
// _t1). Rows do not pay: split in two by rows, m8·k784·n128 went from 33
// to 44 µs, m16·k784·n128 from 71 to 92 µs and serve-fleet's 16-row
// batches from 3252 and 3116 op/s to 2898 and 3012, and in train-sync's
// session the helpers ran under 0.03 s of ≈1.5 s of row blocks while
// yielding for 0.38–0.56 s.
func splitPlan(m, k, n, threads, procs int) (cols int) {
	if threads < 2 || procs < 2 || m >= 2*threads || k*n < colSplitMin {
		return n
	}
	lines := (n + lineFloats - 1) / lineFloats
	blocks := min(threads, procs, lines)
	return (lines + blocks - 1) / blocks * lineFloats
}

// matMul is one split product; matMuls recycles them.
type matMul struct {
	c, a, b       []float32
	m, k, n, cols int
}

var matMuls = make(par.Free[matMul], 64) // as many as par keeps splits

// Block accumulates column block i over every row: one strided gemm
// over a and its columns of b and c.
func (p *matMul) Block(i int) {
	j0 := i * p.cols
	gemm(p.c[j0:], p.a, p.b[j0:], 0, p.m, p.k, min(p.cols, p.n-j0), p.k, p.n, p.n)
}

// matMulRows accumulates rows [lo,hi) of A×B into c, all three dense.
func matMulRows(c, a, b []float32, lo, hi, k, n int) {
	gemm(c, a, b, lo, hi, k, n, k, n, n)
}

// gemm accumulates rows [lo,hi) of A×B into c, where row i of a starts at
// a[i·lda], row kk of b at b[kk·ldb] and row i of c at c[i·ldc]: BLAS's
// leading dimensions. Rows of a or b may overlap (lda < k, ldb < n), as a
// convolution's windows do; ldc ≥ n keeps the rows of c apart. It runs
// the assembly where the CPU has AVX and matMulRowsGo elsewhere, bit for
// bit the same (TestMatMulRowsMatchesGo); nothing else selects between
// them.
//
// The assembly indexes what it is told to, so every bound is established
// here, before anything is written: each operand is sliced to its strided
// extent, which panics, as the scalar loop's indexing would, unless it
// holds every element the call reads or writes.
func gemm(c, a, b []float32, lo, hi, k, n, lda, ldb, ldc int) {
	if lo >= hi || k <= 0 || n <= 0 {
		return
	}
	if lo < 0 || lda < 0 || ldb < 0 || ldc < n {
		panic(fmt.Sprintf("kernels: gemm rows [%d,%d) of k %d, n %d at strides %d, %d, %d", lo, hi, k, n, lda, ldb, ldc))
	}
	gemmRows(c[lo*ldc:(hi-1)*ldc+n], a[lo*lda:(hi-1)*lda+k], b[:(k-1)*ldb+n], hi-lo, k, n, lda, ldb, ldc)
}

// matMulRowsGo is the scalar loop under gemm, and the oracle of its
// assembly.
func matMulRowsGo(c, a, b []float32, lo, hi, k, n, lda, ldb, ldc int) {
	for i := lo; i < hi; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*ldb : kk*ldb+n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}

// BiasAdd writes src plus a per-channel bias into dst, where channels
// are the innermost dimension and len(src) is a multiple of a non-empty
// bias. dst may alias src.
func BiasAdd(dst, src, bias []float32) {
	checkBias(src, bias)
	biasAdd(dst, src, bias)
}

// checkBias panics unless len(src) is a multiple of a non-empty bias.
func checkBias(src, bias []float32) {
	if len(src) > 0 && (len(bias) == 0 || len(src)%len(bias) != 0) {
		panic(fmt.Sprintf("kernels: bias add of %d channels over %d elements", len(bias), len(src)))
	}
}

// BiasRelu writes Relu(BiasAdd(src, bias)) into dst, bit for bit, in
// one pass over memory: it runs the two loops in turn over blocks of
// whole rows that fit in L1 (biasReluBlock), so Relu reads what BiasAdd
// wrote while it is still in cache. Its operands are BiasAdd's, and dst
// may alias src.
func BiasRelu(dst, src, bias []float32) {
	checkBias(src, bias)
	biasRelu(dst[:len(src)], src, bias, biasAdd, relu)
}

// biasReluGo is BiasRelu on the Go loops.
func biasReluGo(dst, src, bias []float32) { biasRelu(dst[:len(src)], src, bias, biasAddGo, reluGo) }

// biasReluBlock is the floats a block of BiasRelu spans at most, but
// for a row wider than it: 16 KiB, half a 32 KiB L1 data cache.
const biasReluBlock = 4096

// biasRelu runs add and then rect over dst block by block.
func biasRelu(dst, src, bias []float32, add func(dst, src, bias []float32), rect func(dst, src []float32)) {
	if len(src) == 0 {
		return
	}
	block := max(1, biasReluBlock/len(bias)) * len(bias)
	for lo := 0; lo < len(src); lo += block {
		hi := min(lo+block, len(src))
		add(dst[lo:hi], src[lo:hi], bias)
		rect(dst[lo:hi], dst[lo:hi])
	}
}

// biasAddGo is BiasAdd's Go loop.
func biasAddGo(dst, src, bias []float32) {
	c := len(bias)
	for base := 0; base < len(src); base += c {
		drow, srow := dst[base:base+c], src[base:base+c]
		for j, bv := range bias {
			drow[j] = srow[j] + bv
		}
	}
}

// BiasAddGrad writes into dst [cols] the sums of grad's cols-wide rows,
// the gradient of BiasAdd's bias: each channel adds its rows in
// ascending order from +0. cols comes from RowsCols, whose 0 for a shape
// with no channels is an error.
func BiasAddGrad(dst, grad []float32, cols int) error {
	if cols < 1 || len(grad)%cols != 0 {
		return fmt.Errorf("kernels: bias gradient of %d elements over %d channels", len(grad), cols)
	}
	dst = dst[:cols]
	clear(dst)
	addRuns(dst, grad, cols, len(grad)/cols, 0, cols)
	return nil
}

// addRunsGo is addRuns' Go loop, and so col2imAdd's and BiasAddGrad's.
func addRunsGo(dst, src []float32, n, runs, ldd, lds int) {
	for r := range runs {
		out := dst[r*ldd:][:n]
		for j, v := range src[r*lds:][:n] {
			out[j] += v
		}
	}
}

// key maps the bits of a float32 onto an int64 ordered as the floats
// are: for x and y not NaN, x > y exactly when key(x) > key(y). Both
// zeros map to 0; a NaN maps above key(+Inf) or below key(-Inf).
func key(bits uint32) int64 {
	s := int64(int32(bits))
	sign := s >> 63
	return (s&math.MaxInt32 ^ sign) - sign
}

const (
	infKey    = 0x7f800000 // key(+Inf)
	negInfKey = -infKey    // key(-Inf)

	negInfBits uint32 = 0xff800000 // math.Float32bits(-Inf)
)

// gtMask is -1 (all ones) when the float of key k is greater than the
// float of key best, which is not NaN, and 0 otherwise, a NaN k included:
// the float comparison k > best without a branch on either value.
func gtMask(k, best int64) int64 {
	return ((best - k) & (k - infKey - 1)) >> 63
}

// positive is all ones when the float32 of bits b is greater than 0 and
// 0 otherwise (±0, negatives, NaN). Compared with 0 a float's sign-extended
// bits stand in for its key: they have the key's sign.
func positive(b uint32) uint32 {
	return uint32(gtMask(int64(int32(b)), 0))
}

// Relu writes max(src, 0) into dst; NaN and -0 map to +0. dst may alias
// src.
func Relu(dst, src []float32) {
	relu(dst[:len(src)], src)
}

// reluGo is Relu's Go loop.
func reluGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float32bits(v)
		dst[i] = math.Float32frombits(b & positive(b))
	}
}

// ReluGrad writes into dst the gradient g where x > 0, and +0 where x is
// not (x ±0, negative or NaN). g and dst are at least as long as x, and
// dst may alias either.
func ReluGrad(dst, g, x []float32) {
	reluGrad(dst[:len(x)], g[:len(x)], x)
}

// reluGradGo is ReluGrad's Go loop.
func reluGradGo(dst, g, x []float32) {
	dst, g = dst[:len(x)], g[:len(x)]
	for i, v := range x {
		dst[i] = math.Float32frombits(math.Float32bits(g[i]) & positive(math.Float32bits(v)))
	}
}

// ApplySGD is the gradient-descent update, v[i] -= a·g[i], the product
// rounded to float32 before the subtraction, under the session's
// ApplySGD kernel, the parameter server's sync and async commits and the
// federated local step alike: they differ in a — a learning rate, or
// one already divided by the contributors. g is at least as long as v.
func ApplySGD(v, g []float32, a float32) {
	g = g[:len(v)]
	for i := range v {
		v[i] -= float32(a * g[i])
	}
}

// Geom is the resolved geometry of one NHWC convolution or pooling
// window: input [N,H,W,C], window KH×KW, output [N,OH,OW,F]. ConvGeom
// and PoolGeom only return one whose output is non-empty and whose
// unpadded windows lie wholly inside the input, which is what lets the
// pool kernels index without edge tests.
type Geom struct {
	N, H, W, C      int
	KH, KW, F       int
	Stride          int
	OH, OW          int
	PadTop, PadLeft int
}

// ConvFLOPs is the arithmetic a convolution over g, or either of its
// gradients, is charged for: two operations per multiply-add.
func (g Geom) ConvFLOPs() int64 {
	return 2 * int64(g.N) * int64(g.OH) * int64(g.OW) * int64(g.F) * int64(g.KH) * int64(g.KW) * int64(g.C)
}

// OutSize is the output extent of a window of size k moved by stride
// over in elements, with SAME or VALID padding.
func OutSize(in, k, stride int, same bool) int {
	if same {
		return (in + stride - 1) / stride
	}
	return (in-k)/stride + 1
}

// ConvGeom resolves the geometry of convolving x [N,H,W,C] with filter
// [KH,KW,C,F].
func ConvGeom(x, filter []int, stride int, same bool) (Geom, error) {
	if len(x) != 4 || len(filter) != 4 || x[3] != filter[2] {
		return Geom{}, fmt.Errorf("kernels: conv2d: shapes %v, %v", x, filter)
	}
	return newGeom(x, filter[0], filter[1], filter[3], stride, same)
}

// PoolGeom resolves the geometry of pooling x [N,H,W,C] with a k×k
// VALID window.
func PoolGeom(x []int, k, stride int) (Geom, error) {
	if len(x) != 4 {
		return Geom{}, fmt.Errorf("kernels: pool: shape %v is not NHWC", x)
	}
	return newGeom(x, k, k, x[3], stride, false)
}

func newGeom(x []int, kh, kw, f, stride int, same bool) (Geom, error) {
	if kh < 1 || kw < 1 || stride < 1 {
		return Geom{}, fmt.Errorf("kernels: window %dx%d stride %d", kh, kw, stride)
	}
	g := Geom{
		N: x[0], H: x[1], W: x[2], C: x[3],
		KH: kh, KW: kw, F: f,
		Stride: stride,
		OH:     OutSize(x[1], kh, stride, same),
		OW:     OutSize(x[2], kw, stride, same),
	}
	// A VALID window larger than its input would have no whole position;
	// the explicit test matters because Go's truncating division can
	// still yield an output extent of 1 for it.
	if (!same && (kh > g.H || kw > g.W)) || g.OH < 1 || g.OW < 1 {
		return Geom{}, fmt.Errorf("kernels: window %dx%d stride %d does not fit input %v", kh, kw, stride, x)
	}
	if same {
		g.PadTop = max(0, (g.OH-1)*stride+kh-g.H) / 2
		g.PadLeft = max(0, (g.OW-1)*stride+kw-g.W) / 2
	}
	return g, nil
}

// MaxPool writes the window maxima of x into dst [N,OH,OW,C]. A non-nil
// argmax, of dst's length, receives the flat index into x each maximum
// came from (-1 if the window held no value greater than -Inf): the
// cache the gradient kernel routes through. Inference passes nil.
func MaxPool(dst, x []float32, g Geom, argmax []int32) {
	if g.KH == 2 && g.KW == 2 && g.Stride == 2 {
		maxPool2x2(dst, x, g, argmax)
		return
	}
	maxPoolGeneric(dst, x, g, argmax)
}

// maxPool2x2 is MaxPool for the 2×2 window at stride 2: the assembly
// where the CPU has AVX2, over blocks of eight channels, and
// maxPool2x2Go over the channels left.
func maxPool2x2(dst, x []float32, g Geom, argmax []int32) {
	if c0 := maxPool2x2Vector(dst, x, g, argmax); c0 < g.C {
		maxPool2x2Go(dst, x, g, argmax, c0)
	}
}

// maxPool2x2Go is maxPool2x2 over channels [c0, C). An output's window
// is four C-wide runs of x, and each of its maxima takes the four
// candidates in (ky, kx) order through gtMask, so it selects what
// maxPoolGeneric's strict > does — the first maximum, never a NaN, -1
// for a window of -Inf — without a branch on a value.
func maxPool2x2Go(dst, x []float32, g Geom, argmax []int32, c0 int) {
	c, rowC := g.C, g.W*g.C
	o := 0
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				i0 := ((b*g.H+2*oy)*g.W + 2*ox) * c
				i2 := i0 + rowC
				out := dst[o : o+c]
				x0, x1 := x[i0 : i0+c][:len(out)], x[i0+c : i0+2*c][:len(out)]
				x2, x3 := x[i2 : i2+c][:len(out)], x[i2+c : i2+2*c][:len(out)]
				for cc := c0; cc < c; cc++ {
					k, bits, idx := int64(negInfKey), negInfBits, int64(-1)
					k, bits, idx = pick(k, bits, idx, math.Float32bits(x0[cc]), i0+cc)
					k, bits, idx = pick(k, bits, idx, math.Float32bits(x1[cc]), i0+c+cc)
					k, bits, idx = pick(k, bits, idx, math.Float32bits(x2[cc]), i2+cc)
					_, bits, idx = pick(k, bits, idx, math.Float32bits(x3[cc]), i2+c+cc)
					out[cc] = math.Float32frombits(bits)
					if argmax != nil {
						argmax[o+cc] = int32(idx)
					}
				}
				o += c
			}
		}
	}
}

// pick is one strict-> step of a running maximum held as its key, its
// bits and its index: the float of bits, at index i, replaces it only if
// greater.
func pick(bestKey int64, bestBits uint32, bestIdx int64, bits uint32, i int) (int64, uint32, int64) {
	k := key(bits)
	m := gtMask(k, bestKey)
	return bestKey ^ (bestKey^k)&m, bestBits ^ (bestBits^bits)&uint32(m), bestIdx ^ (bestIdx^int64(i))&m
}

// maxPoolGeneric is MaxPool for every window, and the oracle its fast
// path is tested against.
func maxPoolGeneric(dst, x []float32, g Geom, argmax []int32) {
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				for cc := 0; cc < g.C; cc++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							idx := ((b*g.H+oy*g.Stride+ky)*g.W+ox*g.Stride+kx)*g.C + cc
							if x[idx] > best {
								best, bestIdx = x[idx], idx
							}
						}
					}
					oIdx := ((b*g.OH+oy)*g.OW+ox)*g.C + cc
					dst[oIdx] = best
					if argmax != nil {
						argmax[oIdx] = int32(bestIdx)
					}
				}
			}
		}
	}
}

// MaxPoolGrad writes into dx the gradient of a max pool given its
// output gradient grad and the argmax MaxPool filled, both one element
// per output: each output's gradient goes to the input element its
// argmax names, as +0 + grad, and every other element of dx is +0. g is
// the geometry the pool ran over when that was dx's shape, and the zero
// Geom when it is unknown. For the 2×2 stride-2 window, whose windows do
// not overlap, on a CPU with AVX2 and over a multiple of eight channels,
// every window position is written directly (the argmax lane naming it
// selects +0 + grad, any other +0) and the edge no window covers is
// cleared. Anything else clears dx and adds each gradient at its argmax,
// refusing one outside dx: it may come from a pool over another tensor.
func MaxPoolGrad(dx, grad []float32, argmax []int32, g Geom) error {
	if len(argmax) != len(grad) {
		return fmt.Errorf("kernels: max pool gradient of %d elements for %d argmax entries", len(grad), len(argmax))
	}
	if g.KH == 2 && g.KW == 2 && g.Stride == 2 && len(dx) == g.N*g.H*g.W*g.C && len(grad) == g.N*g.OH*g.OW*g.C &&
		maxPoolGrad2x2Vector(dx, grad, argmax, g) {
		g.clearUncovered(dx)
		return nil
	}
	return maxPoolGradScatter(dx, grad, argmax)
}

// maxPoolGradScatter is MaxPoolGrad for any pool: the zero-then-scatter
// loop, checked, and the oracle of the 2×2 path.
func maxPoolGradScatter(dx, grad []float32, argmax []int32) error {
	clear(dx)
	for i, idx := range argmax {
		if int(idx) >= len(dx) {
			return fmt.Errorf("kernels: max pool argmax %d outside an input of %d elements", idx, len(dx))
		}
		if idx >= 0 {
			dx[idx] += grad[i]
		}
	}
	return nil
}

// clearUncovered zeroes the input elements no 2×2 stride-2 window
// covers: the last row of an image of odd height, and the last column of
// one of odd width.
func (g Geom) clearUncovered(dx []float32) {
	rowC := g.W * g.C
	for b := range g.N {
		img := dx[b*g.H*rowC : (b+1)*g.H*rowC]
		clear(img[2*g.OH*rowC:])
		if g.W > 2*g.OW {
			for y := range 2 * g.OH {
				clear(img[y*rowC+2*g.OW*g.C : (y+1)*rowC])
			}
		}
	}
}

// AvgPool writes the window means of x into dst [N,OH,OW,C].
func AvgPool(dst, x []float32, g Geom) {
	area := float32(g.KH * g.KW)
	for b := 0; b < g.N; b++ {
		for oy := 0; oy < g.OH; oy++ {
			for ox := 0; ox < g.OW; ox++ {
				for cc := 0; cc < g.C; cc++ {
					var sum float32
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							sum += x[((b*g.H+oy*g.Stride+ky)*g.W+ox*g.Stride+kx)*g.C+cc]
						}
					}
					dst[((b*g.OH+oy)*g.OW+ox)*g.C+cc] = sum / area
				}
			}
		}
	}
}

// RowsCols views a tensor of the given shape as [rows, cols], cols being
// its last dimension. A rank-0 shape or an empty last dimension has no
// such view and yields cols 0, which the row kernels reject.
func RowsCols(shape []int) (rows, cols int) {
	if len(shape) == 0 || shape[len(shape)-1] < 1 {
		return 0, 0
	}
	rows = 1
	for _, d := range shape[:len(shape)-1] {
		rows *= d
	}
	return rows, shape[len(shape)-1]
}

// SoftmaxRows writes the softmax of each cols-wide row of src into dst.
func SoftmaxRows(dst, src []float32, cols int) error {
	if cols < 1 {
		return fmt.Errorf("kernels: softmax over %d columns", cols)
	}
	for base := 0; base < len(src); base += cols {
		row, out := src[base:base+cols], dst[base:base+cols]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxv))
			out[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range out {
			out[i] *= inv
		}
	}
	return nil
}

// ArgMaxRows writes the index of the first maximum of each cols-wide row
// of src into dst, one entry per row.
func ArgMaxRows[I int | int32](dst []I, src []float32, cols int) error {
	if cols < 1 {
		return fmt.Errorf("kernels: argmax over %d columns", cols)
	}
	for r := range dst {
		row := src[r*cols : (r+1)*cols]
		best := 0
		for c, v := range row {
			if v > row[best] {
				best = c
			}
		}
		dst[r] = I(best)
	}
	return nil
}
