package ring

import "github.com/securetf/securetf/internal/cpu"

// quantizeInt8AVX is QuantizeInt8 over the first len(delta)/8 whole
// blocks of eight coordinates (quantize_amd64.s). It trusts dst,
// residual and next to cover them.
//
//go:noescape
func quantizeInt8AVX(dst []byte, delta, residual, next []float32, step float64)

// quantizeInt8 runs the assembly over the whole blocks, where the CPU
// has AVX, and quantizeInt8Go over the rest. The slice expressions are
// the bounds check the assembly does not make. The runtime cannot
// preempt one call; it is bounded by one variable, fed-round's largest
// (100 352 coordinates) a fraction of a millisecond.
func quantizeInt8(dst []byte, delta, residual, next []float32, step float64) {
	n := 0
	if cpu.AVX {
		n = len(delta) &^ 7
		quantizeInt8AVX(dst[:2*n], delta[:n], residual[:n], next[:n], step)
	}
	quantizeInt8Go(dst[2*n:], delta[n:], residual[n:], next[n:], step)
}
