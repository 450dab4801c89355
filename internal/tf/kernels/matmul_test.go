package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// matMulRowsGo, the scalar loop, is the oracle: it is the loop every
// pinned trajectory in the repo was recorded on, it runs on every
// architecture, and on a CPU without AVX it is also what gemm runs, so
// these tests then compare it with itself and pass.

// strides are the row strides (leading dimensions) of a, b and c.
type strides struct{ a, b, c int }

func dense(k, n int) strides { return strides{k, n, n} }

// extent is how many elements rows rows of cols, ld apart, span.
func extent(rows, cols, ld int) int {
	if rows == 0 || cols == 0 {
		return 0
	}
	return (rows-1)*ld + cols
}

// gemmShape is one GEMM the benchmark's workloads run, as gemm sees it.
// zeros is the share of a that is zero; a nil ld means dense.
type gemmShape struct {
	name    string
	m, k, n int
	ld      *strides
	zeros   float64
}

func (s gemmShape) strides() strides {
	if s.ld == nil {
		return dense(s.k, s.n)
	}
	return *s.ld
}

// gemmShapes: the fully connected layers whole; the convolutions as the
// strided calls they make — a forward line's windows (a, Stride·C apart)
// against one filter row, a filter gradient's transposed image gradient
// against that image's windows (b) into one column block of the
// transposed filter (c, K apart) — and the input gradient one dense dcol
// tile at a time.
var gemmShapes = []gemmShape{
	{"serve-steady/m1_k2048_n2048", 1, 2048, 2048, nil, 0.2},
	{"serve-fleet/m8_k784_n128", 8, 784, 128, nil, 0.2},
	{"serve-fleet/m16_k784_n128", 16, 784, 128, nil, 0.2},
	{"train-sync/m50_k784_n512", 50, 784, 512, nil, 0.2},
	{"train-sync/fc1_grad_w_m784_k50_n512", 784, 50, 512, nil, 0.2},
	{"train-sync/fc1_grad_x_m50_k512_n784", 50, 512, 784, nil, 0.5},
	{"train-sync/conv1_line_m28_k5_n8_lda1", 28, 5, 8, &strides{1, 8, 8}, 0.75},
	{"train-sync/conv2_line_m14_k40_n16_lda8", 14, 40, 16, &strides{8, 16, 16}, 0.1},
	{"train-sync/conv1_grad_filter_m8_k892_n5_ldb1_ldc25", 8, 892, 5, &strides{892, 1, 25}, 0.8},
	{"train-sync/conv2_grad_filter_m16_k248_n40_ldb8_ldc200", 16, 248, 40, &strides{248, 8, 200}, 0.8},
	{"train-sync/conv2_grad_input_tile_m81_k16_n200", 81, 16, 200, nil, 0.8},
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

// checkAgainstGo runs rows [lo,hi) of the product at strides ld through
// gemm and through the scalar loop, the operands of the former placed off
// elements into framed slices: a lane that read outside a or b would
// poison c with their frames' NaN, one that wrote outside c would break
// its frame, and rows outside [lo,hi), like the gaps between c's rows,
// must come back untouched. nanOK is sameBits'.
func checkAgainstGo(t *testing.T, what string, c0, a, b []float32, lo, hi, k, n int, ld strides, off int, nanOK bool) {
	t.Helper()
	nan := float32(math.NaN())
	want := append([]float32(nil), c0...)
	if k > 0 && n > 0 { // an empty product indexes nothing
		matMulRowsGo(want, a, b, lo, hi, k, n, ld.a, ld.b, ld.c)
	}

	_, fa := framed(a, off, nan)
	_, fb := framed(b, off, nan)
	const canary = 12345.678 // finite, so that a stray lane adding NaN to it shows
	whole, got := framed(c0, off, canary)
	gemm(got, fa, fb, lo, hi, k, n, ld.a, ld.b, ld.c)
	sameBits(t, what, got, want, nanOK)
	for i, v := range whole {
		if (i < off || i >= off+len(c0)) && v != canary {
			t.Fatalf("%s: wrote %v at %d, outside c[%d:%d]", what, v, i, off, off+len(c0))
		}
	}
}

func TestMatMulRowsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Seven rows are one group of four and three left over; rows 1 to 6
	// of them, so that neither end of c, a is the end of its slice, leave
	// one. Where n ≤ 16 keeps the rows in registers, rows 1 to 3 are two
	// left over alone and rows 0 to 6 two after a group.
	const m, lo, hi = 7, 1, 6
	for n := 0; n <= 67; n++ {
		for _, k := range []int{0, 1, 3, 4, 5, 200} {
			for off := 0; off < 8; off++ {
				zeros := []float64{0, 0.1, 0.8, 1}[(n+k+off)%4]
				// Dense; gaps between rows; rows of a and b overlapping,
				// as a convolution's windows do; one row of a and b for all.
				ld := []strides{dense(k, n), {k + 3, n + 1, n + 9}, {k / 2, n / 3, n + 1}, {0, 0, n}}[off%4]
				ranges := [][2]int{{lo, hi}, {0, m}}
				if n <= 16 {
					ranges = append(ranges, [2]int{1, 3}, [2]int{0, 6})
				}
				for _, rows := range ranges {
					a, b := awkwardFloats(rng, extent(m, k, ld.a), zeros), awkwardFloats(rng, extent(k, n, ld.b), 0.1)
					c0 := awkwardFloats(rng, extent(m, n, ld.c), 0.3) // accumulated into: -0 and denormals included
					what := fmt.Sprintf("rows %v of m%d·k%d·n%d at strides %v, offset %d, %.0f%% zeros", rows, m, k, n, ld, off, 100*zeros)
					checkAgainstGo(t, what, c0, a, b, rows[0], rows[1], k, n, ld, off, false)
				}
			}
		}
	}
	for _, s := range gemmShapes {
		if testing.Short() && s.m*s.k*s.n > 1<<22 {
			continue
		}
		ld := s.strides()
		a, b := sparseFloats(rng, extent(s.m, s.k, ld.a), s.zeros), sparseFloats(rng, extent(s.k, s.n, ld.b), 0)
		checkAgainstGo(t, s.name, make([]float32, extent(s.m, s.n, ld.c)), a, b, 0, s.m, s.k, s.n, ld, 3, false)
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
			checkAgainstGo(t, fmt.Sprintf("m%d·k%d·n%d", m, k, n), c0, a, b, 0, m, k, n, dense(k, n), 1, true)
		}
	}
}

// FuzzMatMulRows feeds both loops arbitrary bit patterns at arbitrary
// strides: lda and ldb from 0 (one row for all) past k and n (gaps), ldc
// from n up.
func FuzzMatMulRows(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(9), uint8(0), uint8(3), uint8(9), uint8(0), []byte("\x00\x00\x80\x3f\x00\x00\x00\x80\x01\x00\x00\x00\x00\x00\x80\x7f"))
	f.Add(uint8(4), uint8(200), uint8(16), uint8(3), uint8(200), uint8(16), uint8(0), []byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0, 0, 0xcd, 0xcc, 0x4c, 0x3e})
	f.Add(uint8(9), uint8(17), uint8(67), uint8(7), uint8(17), uint8(67), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(8), uint8(40), uint8(16), uint8(1), uint8(8), uint8(16), uint8(0), []byte{0, 0, 0x80, 0xbf, 9, 8, 7, 6, 0, 0, 0, 0})
	f.Add(uint8(4), uint8(30), uint8(40), uint8(2), uint8(30), uint8(8), uint8(5), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, m8, k8, n8, off8, lda8, ldb8, ldc8 uint8, data []byte) {
		m, k, n, off := int(m8%10), int(k8), int(n8%70), int(off8%8)
		ld := strides{int(lda8) % (k + 8), int(ldb8) % (n + 8), n + int(ldc8%8)}
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
		a, b, c0 := pattern(extent(m, k, ld.a), 0), pattern(extent(k, n, ld.b), 1), pattern(extent(m, n, ld.c), 2)
		checkAgainstGo(t, fmt.Sprintf("m%d·k%d·n%d at strides %v", m, k, n, ld), c0, a, b, 0, m, k, n, ld, off, true)
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

// TestGemmChecksStridesFirst: the same at strides. An operand one element
// short of its strided extent panics before one element of c is written,
// whether the rows have gaps, overlap or are one row for all, and so do a
// negative stride and rows of c that overlap.
func TestGemmChecksStridesFirst(t *testing.T) {
	const m, k, n = 6, 5, 20
	rng := rand.New(rand.NewSource(24))
	type gemmCase struct {
		name             string
		lenC, lenA, lenB int
		ld               strides
		panics           bool
	}
	var cases []gemmCase
	for _, ld := range []strides{{7, 23, 21}, {2, 3, 20}, {0, 0, 29}} {
		la, lb, lc := extent(m, k, ld.a), extent(k, n, ld.b), extent(m, n, ld.c)
		cases = append(cases,
			gemmCase{fmt.Sprintf("short a at %v", ld), lc, la - 1, lb, ld, true},
			gemmCase{fmt.Sprintf("short b at %v", ld), lc, la, lb - 1, ld, true},
			gemmCase{fmt.Sprintf("short c at %v", ld), lc - 1, la, lb, ld, true},
			gemmCase{fmt.Sprintf("exact at %v", ld), lc, la, lb, ld, false})
	}
	cases = append(cases,
		gemmCase{"ldc < n", m * n, m * k, k * n, strides{k, n, n - 1}, true},
		gemmCase{"negative lda", m * n, m * k, k * n, strides{-1, n, n}, true},
		gemmCase{"negative ldb", m * n, m * k, k * n, strides{k, -1, n}, true})
	for _, tc := range cases {
		a, b := sparseFloats(rng, tc.lenA, 0), sparseFloats(rng, tc.lenB, 0)
		c := make([]float32, tc.lenC)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			gemm(c, a, b, 0, m, k, n, tc.ld.a, tc.ld.b, tc.ld.c)
			return false
		}()
		if panicked != tc.panics {
			t.Errorf("%s: panicked = %v, want %v", tc.name, panicked, tc.panics)
		}
		if tc.panics && !allZero(c) {
			t.Errorf("%s: c was written", tc.name)
		}
	}
}

// TestSplitPlan pins the path each workload's GEMM takes through
// MatMulInto. The interpreter passes ColumnSplitThreads of its device's
// four threads, so only an unbatched row over a large b is split, and by
// columns; the session passes the four threads and keeps the row split
// it always had, its products all having small b.
func TestSplitPlan(t *testing.T) {
	const threads, procs = 4, 2
	lite := func(m int) int { return ColumnSplitThreads(m, threads) }
	cases := []struct {
		name                    string
		m, k, n, threads, procs int
		rowsPer, cols           int
	}{
		// Two column blocks on two processors, whole cache lines each.
		{"serve-steady/m1_k2048_n2048", 1, 2048, 2048, lite(1), procs, 1, 1024},
		{"serve-steady/m1_k2048_n1000", 1, 2048, 1000, lite(1), procs, 1, 512},
		// As many blocks as threads where there are processors for them,
		// and none where there is one.
		{"serve-steady/m1_k2048_n2048 on 8 processors", 1, 2048, 2048, lite(1), 8, 1, 512},
		{"serve-steady/m1_k2048_n2048 on 1 processor", 1, 2048, 2048, lite(1), 1, 1, 2048},
		// b under colSplitMin, or one cache line wide: one piece.
		{"m1_k2048_n511", 1, 2048, 511, lite(1), procs, 1, 511},
		{"m1_k65536_n16", 1, 1 << 16, 16, lite(1), procs, 1, 16},
		{"serve-fleet/m8_k784_n128", 8, 784, 128, lite(8), procs, 8, 128},
		{"serve-fleet/m16_k784_n128", 16, 784, 128, lite(16), procs, 16, 128},
		{"serve-fleet/m1_k784_n128", 1, 784, 128, lite(1), procs, 1, 128},
		// The session's products: rows split four ways, as before.
		{"train-sync/m50_k784_n512", 50, 784, 512, threads, procs, 13, 512},
		{"train-sync/fc1_grad_w_m784_k50_n512", 784, 50, 512, threads, procs, 196, 512},
		{"train-sync/fc1_grad_x_m50_k512_n784", 50, 512, 784, threads, procs, 13, 784},
		{"fed-round/m20_k784_n128", 20, 784, 128, threads, procs, 5, 128},
		{"session/m7_k784_n128", 7, 784, 128, threads, procs, 7, 128},
		{"one thread", 50, 784, 512, 1, procs, 50, 512},
	}
	for _, tc := range cases {
		rowsPer, cols := splitPlan(tc.m, tc.k, tc.n, tc.threads, tc.procs)
		if rowsPer != tc.rowsPer || cols != tc.cols {
			t.Errorf("%s at %d threads on %d processors: pieces of %d rows by %d columns, want %d by %d",
				tc.name, tc.threads, tc.procs, rowsPer, cols, tc.rowsPer, tc.cols)
		}
	}
}

// TestMatMulIntoSplitsColumns: a product split into column blocks is the
// one-thread product bit for bit, whatever the blocks, the zeros of a or
// the number of callers at once. Each b is as small as splits, bar one
// just under that size, which must stay one piece; n = 2·16+1 makes the
// last block one column wide.
func TestMatMulIntoSplitsColumns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(25))
	over := func(n int) int { return (colSplitMin + n - 1) / n }
	shapes := []struct{ k, n int }{
		{over(2048), 2048},
		{over(1000), 1000},
		{over(2*lineFloats + 1), 2*lineFloats + 1},
		{over(2048), 2047},
	}
	for _, s := range shapes {
		b, awkwardB := sparseFloats(rng, s.k*s.n, 0), awkwardFloats(rng, s.k*s.n, 0.1)
		for _, threads := range []int{2, 4, 8} {
			for _, m := range []int{1, 2*threads - 1} {
				_, cols := splitPlan(m, s.k, s.n, threads, runtime.GOMAXPROCS(0))
				if split := s.k*s.n >= colSplitMin; (cols < s.n) != split {
					t.Fatalf("m%d·k%d·n%d at %d threads: blocks of %d columns, split = %v", m, s.k, s.n, threads, cols, split)
				}
				ops := []struct {
					name string
					a, b []float32
				}{
					{"dense", sparseFloats(rng, m*s.k, 0), b},
					{"half zero", sparseFloats(rng, m*s.k, 0.5), b},
					{"all zero", make([]float32, m*s.k), b},
				}
				if m == 1 {
					// Denormals are slow on x86: one row of them is enough.
					ops = append(ops, struct {
						name string
						a, b []float32
					}{"awkward", awkwardFloats(rng, m*s.k, 0.3), awkwardB})
				}
				for _, op := range ops {
					want := make([]float32, m*s.n)
					MatMulInto(want, op.a, op.b, m, s.k, s.n, 1)
					got := make([]float32, m*s.n)
					MatMulInto(got, op.a, op.b, m, s.k, s.n, threads)
					sameBits(t, fmt.Sprintf("%s m%d·k%d·n%d at %d threads", op.name, m, s.k, s.n, threads), got, want, false)
				}
			}
		}
	}

	// Eight callers at once, each splitting eight ways: more blocks than
	// there are helpers, so some run on the goroutine that found none free.
	const m, k, n, callers = 1, 2048, 2048, 8
	a, b := awkwardFloats(rng, m*k, 0.2), awkwardFloats(rng, k*n, 0.1)
	want := make([]float32, m*n)
	MatMulInto(want, a, b, m, k, n, 1)
	var wg sync.WaitGroup
	for w := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 {
				got := make([]float32, m*n)
				MatMulInto(got, a, b, m, k, n, 8)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Errorf("caller %d, call %d: element %d = %v, want %v", w, i, j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
