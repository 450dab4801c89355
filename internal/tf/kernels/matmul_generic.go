//go:build !amd64

package kernels

func matMulRows(c, a, b []float32, lo, hi, k, n int) {
	matMulRowsGo(c, a, b, lo, hi, k, n)
}
