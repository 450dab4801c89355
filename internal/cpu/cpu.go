// Package cpu reports the instruction-set extensions the module's
// assembly selects on: internal/tf/kernels' GEMM and element-wise loops
// and internal/federated/ring's int8 quantizer. It imports nothing, so
// any kernel package can use it.
package cpu
