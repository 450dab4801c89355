//go:build !amd64

package kernels

func gemmRows(c, a, b []float32, rows, k, n, lda, ldb, ldc int) {
	matMulRowsGo(c, a, b, 0, rows, k, n, lda, ldb, ldc)
}
