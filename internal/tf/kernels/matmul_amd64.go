package kernels

import "github.com/securetf/securetf/internal/cpu"

// matMulAxpyAVX, matMulRows4AVX and matMulRowsTailAVX accumulate the
// first rows rows of A×B into c at the row strides lda, ldb and ldc
// (matmul_amd64.s). They trust their arguments: rows, k, n ≥ 1, ldc ≥ n,
// and c, a, b hold (rows-1)·ldc+n, (rows-1)·lda+k and (k-1)·ldb+n
// elements; matMulRows4AVX also wants rows a multiple of 4 and n ≤ 16,
// matMulRowsTailAVX rows ≤ 3 and n ≤ 16.
//
//go:noescape
func matMulAxpyAVX(c, a, b []float32, rows, k, n, lda, ldb, ldc int)

//go:noescape
func matMulRows4AVX(c, a, b []float32, rows, k, n, lda, ldb, ldc int)

//go:noescape
func matMulRowsTailAVX(c, a, b []float32, rows, k, n, lda, ldb, ldc int)

// transposeAVX writes the transpose of src [m,n] at row stride lds into
// dst [n,m] at row stride ldd in 8×8 register tiles (transpose_amd64.s).
// It trusts its arguments: m, n ≥ 8, and src and dst hold (m-1)·lds+n
// and (n-1)·ldd+m elements.
//
//go:noescape
func transposeAVX(dst, src []float32, m, n, lds, ldd int)

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
		switch r4 := r &^ 3; {
		case n > 16:
			matMulAxpyAVX(c[lo*ldc:], a[lo*lda:], b, r, k, n, lda, ldb, ldc)
		case r4 > 0:
			// Narrow rows, the forward convolutions' F: four at a time,
			// held in registers, and the last one to three likewise.
			r = r4
			matMulRows4AVX(c[lo*ldc:], a[lo*lda:], b, r, k, n, lda, ldb, ldc)
		default:
			matMulRowsTailAVX(c[lo*ldc:], a[lo*lda:], b, r, k, n, lda, ldb, ldc)
		}
		lo += r
	}
}

// transposeTiles is transpose's loop over operands it has sliced to
// their extents: the tiles where the CPU has AVX and both sides are
// eight or more, transposeGo elsewhere. A call moves at most about
// asmWork floats, in whole blocks of rows.
func transposeTiles(dst, src []float32, m, n, lds, ldd int) {
	if !cpu.AVX || m < 8 || n < 8 {
		transposeGo(dst, src, m, n, lds, ldd)
		return
	}
	step := max(8, asmWork/n&^7)
	for lo := 0; lo < m; {
		r := min(step, m-lo)
		if m-lo-r < 8 {
			r = m - lo // a last block of fewer than eight rows joins this one
		}
		transposeAVX(dst[lo:], src[lo*lds:], r, n, lds, ldd)
		lo += r
	}
}
