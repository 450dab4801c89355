// Package cpu reports the instruction-set extensions the module's
// assembly selects on: AVX for internal/tf/kernels' GEMM, transpose,
// run and element-wise loops and internal/federated/ring's int8
// quantizer, AVX2 for the kernels' 2×2 max pool and its gradient. The
// ring's fold is SSE2, which every amd64 CPU has. It imports nothing, so
// any kernel package can use it.
package cpu
