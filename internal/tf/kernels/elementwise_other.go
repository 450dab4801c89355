//go:build !amd64

package kernels

func reluGrad(dst, g, x []float32) { reluGradGo(dst, g, x) }

func biasAdd(dst, src, bias []float32) { biasAddGo(dst, src, bias) }

func addRuns(dst, src []float32, n, runs, ldd, lds int) { addRunsGo(dst, src, n, runs, ldd, lds) }

func copyRuns(dst, src []float32, n, runs, ldd, lds int) { copyRunsGo(dst, src, n, runs, ldd, lds) }

func maxPool2x2Vector(dst, x []float32, g Geom, argmax []int32) int { return 0 }

func maxPoolGrad2x2Vector(dx, grad []float32, argmax []int32, g Geom) bool { return false }
