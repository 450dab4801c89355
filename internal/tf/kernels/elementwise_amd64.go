package kernels

import "github.com/securetf/securetf/internal/cpu"

// The element-wise loops' assembly (elementwise_amd64.s). Each trusts
// its arguments: the functions below slice every operand to the extent
// the loop reads or writes, so one too short panics here, as the Go
// loop's indexing would, before anything is written. Relu, ReluGrad and
// the row adds need AVX; the 2×2 max pool and its gradient also add and
// compare argmax indices in integer lanes, which takes AVX2. The runtime
// cannot preempt a call; the largest, train-sync's 313 600-float Relu,
// runs some tens of microseconds.

//go:noescape
func reluAVX(dst, src []float32)

//go:noescape
func reluGradAVX(dst, g, x []float32)

//go:noescape
func biasAddAVX(dst, src, bias []float32)

//go:noescape
func addRunsAVX(dst, src []float32, n, runs, ldd, lds int)

//go:noescape
func maxPool2x2AVX2(dst, top, bottom []float32, argmax []int32, ow, c, i0, rowC int)

//go:noescape
func maxPoolGrad2x2AVX2(top, bottom, grad []float32, argmax []int32, ow, c, i0, rowC int)

// relu is Relu over dst and src of one length: whole blocks of eight in
// the assembly, the rest in reluGo.
func relu(dst, src []float32) {
	n := 0
	if cpu.AVX {
		n = len(src) &^ 7
		reluAVX(dst[:n], src[:n])
	}
	reluGo(dst[n:], src[n:])
}

// reluGrad is ReluGrad over dst, g and x of one length.
func reluGrad(dst, g, x []float32) {
	n := 0
	if cpu.AVX {
		n = len(x) &^ 7
		reluGradAVX(dst[:n], g[:n], x[:n])
	}
	reluGradGo(dst[n:], g[n:], x[n:])
}

// biasAdd is BiasAdd once len(src) is known to be a multiple of a
// non-empty bias.
func biasAdd(dst, src, bias []float32) {
	if !cpu.AVX {
		biasAddGo(dst, src, bias)
		return
	}
	biasAddAVX(dst[:len(src)], src, bias)
}

// addRuns adds src[r·lds:][:n] into dst[r·ldd:][:n] for r = 0, 1, …,
// runs-1 in turn, as addRunsGo does.
func addRuns(dst, src []float32, n, runs, ldd, lds int) {
	if n <= 0 || runs <= 0 {
		return
	}
	if ldd < 0 || lds < 0 {
		panic("kernels: addRuns at a negative stride")
	}
	dst, src = dst[:(runs-1)*ldd+n], src[:(runs-1)*lds+n]
	if !cpu.AVX {
		addRunsGo(dst, src, n, runs, ldd, lds)
		return
	}
	addRunsAVX(dst, src, n, runs, ldd, lds)
}

// maxPool2x2Vector runs the assembly over each output row's windows,
// channels [0, C&^7), and returns C&^7: the channels left to the Go loop
// start there. Without AVX2 it does nothing and returns 0.
func maxPool2x2Vector(dst, x []float32, g Geom, argmax []int32) int {
	v := g.C &^ 7
	if !cpu.AVX2 || v == 0 {
		return 0
	}
	rowC, line, span := g.W*g.C, g.OW*g.C, 2*g.OW*g.C
	for b := range g.N {
		for oy := range g.OH {
			o, i0 := (b*g.OH+oy)*line, (b*g.H+2*oy)*rowC
			var am []int32
			if argmax != nil {
				am = argmax[o : o+line]
			}
			maxPool2x2AVX2(dst[o:o+line], x[i0:i0+span], x[i0+rowC:i0+rowC+span], am, g.OW, g.C, i0, rowC)
		}
	}
	return v
}

// maxPoolGrad2x2Vector is MaxPoolGrad's 2×2 path: it writes every
// window position of dx and reports true. Without AVX2, or for a channel
// count that is not a multiple of eight, it writes nothing and reports
// false, and the caller scatters.
func maxPoolGrad2x2Vector(dx, grad []float32, argmax []int32, g Geom) bool {
	if !cpu.AVX2 || g.C%8 != 0 {
		return false
	}
	rowC, line, span := g.W*g.C, g.OW*g.C, 2*g.OW*g.C
	for b := range g.N {
		for oy := range g.OH {
			o, i0 := (b*g.OH+oy)*line, (b*g.H+2*oy)*rowC
			maxPoolGrad2x2AVX2(dx[i0:i0+span], dx[i0+rowC:i0+rowC+span], grad[o:o+line], argmax[o:o+line], g.OW, g.C, i0, rowC)
		}
	}
	return true
}
