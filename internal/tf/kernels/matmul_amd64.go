package kernels

// haveAVX reports whether the CPU has AVX and the OS saves its registers.
func haveAVX() bool

// matMulAxpyAVX and matMulRows4AVX accumulate the first rows rows of A×B
// into c (matmul_amd64.s). They trust their arguments: rows, k, n ≥ 1 and
// c, a, b hold rows·n, rows·k and k·n elements; matMulRows4AVX also wants
// rows a multiple of 4 and n ≤ 16.
//
//go:noescape
func matMulAxpyAVX(c, a, b []float32, rows, k, n int)

//go:noescape
func matMulRows4AVX(c, a, b []float32, rows, k, n int)

var useAVX = haveAVX()

// asmWork bounds the multiply-adds of one assembly call, a row at least:
// the runtime cannot preempt assembly, so a garbage collection waits for
// the call in flight, here some tens of microseconds.
const asmWork = 1 << 20

// matMulRows accumulates rows [lo,hi) of A×B into c: the assembly where
// the CPU has AVX, matMulRowsGo elsewhere, bit for bit the same
// (TestMatMulRowsMatchesGo). Nothing else selects between them.
//
// The assembly indexes what it is told to, so every bound is established
// here: the slice expressions panic, as the scalar loop's do, unless c,
// a and b hold the rows about to be touched.
func matMulRows(c, a, b []float32, lo, hi, k, n int) {
	if !useAVX {
		matMulRowsGo(c, a, b, lo, hi, k, n)
		return
	}
	if k <= 0 || n <= 0 {
		return
	}
	b = b[:k*n]
	step := max(4, asmWork/(k*n)&^3)
	for ; lo < hi; lo += step {
		rows := min(step, hi-lo)
		c, a := c[lo*n:(lo+rows)*n], a[lo*k:(lo+rows)*k]
		if r4 := rows &^ 3; n <= 16 && r4 > 0 {
			// Narrow rows, the forward convolutions' F: four at a time,
			// held in registers. The streaming kernel takes the rest.
			matMulRows4AVX(c, a, b, r4, k, n)
			c, a, rows = c[r4*n:], a[r4*k:], rows-r4
		}
		if rows > 0 {
			matMulAxpyAVX(c, a, b, rows, k, n)
		}
	}
}
