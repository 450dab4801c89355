//go:build !amd64

package ring

func quantizeInt8(dst []byte, delta, residual, next []float32, step float64) {
	quantizeInt8Go(dst, delta, residual, next, step)
}
