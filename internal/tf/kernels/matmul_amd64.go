package kernels

import "github.com/securetf/securetf/internal/cpu"

// matMulAxpyAVX and matMulRows4AVX accumulate the first rows rows of A×B
// into c at the row strides lda, ldb and ldc (matmul_amd64.s). They trust
// their arguments: rows, k, n ≥ 1, ldc ≥ n, and c, a, b hold
// (rows-1)·ldc+n, (rows-1)·lda+k and (k-1)·ldb+n elements;
// matMulRows4AVX also wants rows a multiple of 4 and n ≤ 16.
//
//go:noescape
func matMulAxpyAVX(c, a, b []float32, rows, k, n, lda, ldb, ldc int)

//go:noescape
func matMulRows4AVX(c, a, b []float32, rows, k, n, lda, ldb, ldc int)

// asmWork bounds the multiply-adds of one assembly call, a row at least:
// the runtime cannot preempt assembly, so a garbage collection waits for
// the call in flight, here some tens of microseconds.
const asmWork = 1 << 20

// gemmRows is gemm's loop over operands it has sliced to their extents:
// the assembly where the CPU has AVX, matMulRowsGo elsewhere.
func gemmRows(c, a, b []float32, rows, k, n, lda, ldb, ldc int) {
	if !cpu.AVX {
		matMulRowsGo(c, a, b, 0, rows, k, n, lda, ldb, ldc)
		return
	}
	step := max(4, asmWork/(k*n)&^3)
	for lo := 0; lo < rows; {
		r := min(step, rows-lo)
		if r4 := r &^ 3; n <= 16 && r4 > 0 {
			// Narrow rows, the forward convolutions' F: four at a time,
			// held in registers. The streaming kernel takes the rest.
			r = r4
			matMulRows4AVX(c[lo*ldc:], a[lo*lda:], b, r, k, n, lda, ldb, ldc)
		} else {
			matMulAxpyAVX(c[lo*ldc:], a[lo*lda:], b, r, k, n, lda, ldb, ldc)
		}
		lo += r
	}
}
