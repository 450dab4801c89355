package ring

import (
	"encoding/binary"
	"math"
)

// QuantizeInt8 is the int8 uplink's quantizer. It writes coordinate i of
// delta + residual into dst as one 16-bit ring word, a signed count of
// steps, and into next the part of it those steps do not deliver. Its
// bit contract, on every path:
//
//   - v = float64(delta[i]) + float64(residual[i]);
//   - q = v / step, divided in float64, then rounded half away from zero
//     (math.Round) and clipped to [−127, 127];
//   - dst's word i is int16(q), little-endian; a NaN v gives 0;
//   - next[i] = float32(v − q·step): the product and the difference
//     are each rounded to float64, then the residual to float32.
//
// step must be finite and positive. QuantizeInt8 panics if dst holds
// fewer than 2·len(delta) bytes, or residual or next fewer than
// len(delta) floats. next may be delta itself, as the federated client
// passes it: every path reads a coordinate before it writes it, the
// vector loop a whole block of eight. It never aliases residual, which
// the caller keeps until the upload is accepted.
//
// On amd64 with AVX whole blocks of eight coordinates go through the
// vector loop (quantize_amd64.s) and the tail through quantizeInt8Go,
// the loop every other CPU runs; TestQuantizeMatchesScalar and
// FuzzQuantizeInt8 hold the two to each other bit for bit.
func QuantizeInt8(dst []byte, delta, residual, next []float32, step float64) {
	n := len(delta)
	quantizeInt8(dst[:2*n], delta, residual[:n], next[:n], step)
}

// quantizeInt8Go is QuantizeInt8's scalar loop: the whole quantizer off
// amd64, the tail on it, and the oracle the assembly is tested against.
func quantizeInt8Go(dst []byte, delta, residual, next []float32, step float64) {
	for i := range delta {
		v := float64(delta[i]) + float64(residual[i])
		q := math.Round(v / step)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(int64(q)))
		next[i] = float32(v - float64(q*step))
	}
}
