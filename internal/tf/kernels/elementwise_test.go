package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// awkward returns n floats, half of them drawn from specialFloats (NaN
// payloads of both signs, ±0, ±Inf, subnormals) and half Gaussian, a
// tenth of those -0.
func awkward(rng *rand.Rand, n int) []float32 {
	special := specialFloats()
	out := make([]float32, n)
	for i := range out {
		switch r := rng.Intn(20); {
		case r < 10:
			out[i] = special[rng.Intn(len(special))]
		case r < 11:
			out[i] = float32(math.Copysign(0, -1))
		default:
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

// shifted copies v into a fresh buffer from element off on, so that the
// vector loops also run at every alignment a slice of floats can have.
func shifted(v []float32, off int) []float32 {
	buf := make([]float32, off+len(v)+3)
	copy(buf[off:], v)
	return buf[off : off+len(v)]
}

// TestElementwiseMatchesScalar holds every element-wise loop that has an
// assembly twin to its Go loop, bit for bit: lengths 0 to 67 (whole
// blocks of eight, tails, and both), offsets 0 to 3 into the buffer,
// awkward floats, and in place where the kernel allows it. On a CPU
// without AVX both sides are the Go loop.
func TestElementwiseMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			what := fmt.Sprintf("%d floats at offset %d", n, off)
			x, g := shifted(awkward(rng, n), off), shifted(awkward(rng, n), (off+1)%4)

			want := make([]float32, n)
			reluGo(want, x)
			got := shifted(make([]float32, n), (off+2)%4)
			Relu(got, x)
			bitEqual(t, "relu, "+what, got, want)
			got = shifted(x, off)
			Relu(got, got)
			bitEqual(t, "relu in place, "+what, got, want)

			reluGradGo(want, g, x)
			got = shifted(make([]float32, n), (off+3)%4)
			ReluGrad(got, g, x)
			bitEqual(t, "relu grad, "+what, got, want)
			got = shifted(g, off)
			ReluGrad(got, got, x)
			bitEqual(t, "relu grad into g, "+what, got, want)
			got = shifted(x, off)
			ReluGrad(got, g, got)
			bitEqual(t, "relu grad into x, "+what, got, want)

			// col2imAdd's runs: n floats a run, one to three runs at
			// strides from n (packed) to n+5, into an accumulator of
			// awkward floats; and at ldd 0, which sums the runs in place,
			// as BiasAddGrad does.
			for runs := 1; runs <= 3; runs++ {
				ldd, lds := n+rng.Intn(6), n+rng.Intn(6)
				for _, ldd := range []int{ldd, 0} {
					src := shifted(awkward(rng, (runs-1)*lds+n), off)
					acc := awkward(rng, (runs-1)*ldd+n)
					free := twoNaNs(acc, src, n, runs, ldd, lds)
					want, got := shifted(acc, 0), shifted(acc, (off+1)%4)
					addRunsGo(want, src, n, runs, ldd, lds)
					addRuns(got, src, n, runs, ldd, lds)
					sumEqual(t, fmt.Sprintf("add %d runs at strides %d, %d, %s", runs, ldd, lds, what), got, want, free)
				}
				// The band's run copies, over the gaps' awkward floats,
				// which must survive as they are.
				src := shifted(awkward(rng, (runs-1)*lds+n), off)
				dst := awkward(rng, (runs-1)*ldd+n)
				want, got := shifted(dst, 0), shifted(dst, (off+1)%4)
				copyRunsGo(want, src, n, runs, ldd, lds)
				copyRuns(got, src, n, runs, ldd, lds)
				bitEqual(t, fmt.Sprintf("copy %d runs at strides %d, %d, %s", runs, ldd, lds, what), got, want)
			}
		}
	}

	// BiasAdd and BiasAddGrad: the channel counts of train-sync's layers
	// (8, 16, 512, 10) and 1, over 0 to 5 rows.
	for _, c := range []int{1, 8, 10, 16, 512} {
		for rows := 0; rows <= 5; rows++ {
			for off := 0; off < 4; off++ {
				what := fmt.Sprintf("%d rows of %d channels at offset %d", rows, c, off)
				src, bias := shifted(awkward(rng, rows*c), off), shifted(awkward(rng, c), (off+1)%4)
				free, colFree := twoNaNs(src, bias, c, rows, c, 0), twoNaNs(make([]float32, c), src, c, rows, 0, c)
				want := make([]float32, rows*c)
				biasAddGo(want, src, bias)
				got := shifted(make([]float32, rows*c), (off+2)%4)
				BiasAdd(got, src, bias)
				sumEqual(t, "bias add, "+what, got, want, free)
				got = shifted(src, off)
				BiasAdd(got, got, bias)
				sumEqual(t, "bias add in place, "+what, got, want, free)

				// The loop BiasAddGrad replaced, from a zeroed output.
				want = make([]float32, c)
				for base := 0; base < len(src); base += c {
					for j, v := range src[base : base+c] {
						want[j] += v
					}
				}
				got = shifted(awkward(rng, c), (off+3)%4)
				if err := BiasAddGrad(got, src, c); err != nil {
					t.Fatal(err)
				}
				sumEqual(t, "bias add grad, "+what, got, want, colFree)
			}
		}
	}

	// The 2×2 max pool and its gradient at every channel count, odd
	// extents included, on awkward floats: the vector path against the
	// Go loop over all channels, and the gradient against the checked
	// scatter.
	for _, c := range []int{1, 8, 10, 16, 512} {
		for _, hw := range [][2]int{{2, 2}, {3, 5}, {4, 4}} {
			g, err := PoolGeom([]int{2, hw[0], hw[1], c}, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%v", []int{g.N, g.H, g.W, g.C})
			x := awkward(rng, g.N*g.H*g.W*g.C)
			outs := g.N * g.OH * g.OW * g.C
			want, wantArg := make([]float32, outs), make([]int32, outs)
			maxPool2x2Go(want, x, g, wantArg, 0)
			got, gotArg := make([]float32, outs), make([]int32, outs)
			maxPool2x2(got, x, g, gotArg)
			bitEqual(t, "maxpool, "+what, got, want)
			argEqual(t, "maxpool, "+what, gotArg, wantArg)

			grad := awkward(rng, outs)
			wantDx, gotDx := make([]float32, len(x)), awkward(rng, len(x))
			if err := maxPoolGradScatter(wantDx, grad, wantArg); err != nil {
				t.Fatal(err)
			}
			if err := MaxPoolGrad(gotDx, grad, gotArg, g); err != nil {
				t.Fatal(err)
			}
			bitEqual(t, "maxpool grad, "+what, gotDx, wantDx)
		}
	}
}

// twoNaNs reports, for each element of the sums addRunsGo forms by
// adding src's runs into acc, whether one of its adds met two NaNs: one
// NaN survives an add as itself, quieted, but of two, which payload
// survives is not pinned. Go fixes no operand order for +, and a
// race-instrumented build swaps some.
func twoNaNs(acc, src []float32, n, runs, ldd, lds int) []bool {
	sum, free := slices.Clone(acc), make([]bool, len(acc))
	for r := range runs {
		for j, v := range src[r*lds:][:n] {
			i := r*ldd + j
			free[i] = free[i] || (sum[i] != sum[i] && v != v)
			sum[i] += v
		}
	}
	return free
}

// sumEqual is bitEqual for a kernel that adds, except that any NaN
// matches a NaN where free, from twoNaNs, says two NaNs met.
func sumEqual(t *testing.T, what string, got, want []float32, free []bool) {
	t.Helper()
	got = slices.Clone(got)
	for i := range want {
		if free[i] && got[i] != got[i] && want[i] != want[i] {
			got[i] = want[i]
		}
	}
	bitEqual(t, what, got, want)
}

func argEqual(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: argmax[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestReluGradReadsReluOutput: ReluGrad(g, Relu(x)) is ReluGrad(g, x)
// bit for bit, which lets a Relu's gradient read the Relu's output and
// its input die at the Relu: Relu maps NaN and -0 to +0, so the output
// is positive exactly where the input is. Every pair of special values
// (NaN payloads of both signs, ±0, ±Inf, subnormals, negatives), then
// lengths 0 to 67 of awkward floats, so that the vector loops' whole
// blocks and the Go tail both see each kind; the dispatching kernels and
// the Go loops alike. On a CPU without AVX both are the Go loop.
func TestReluGradReadsReluOutput(t *testing.T) {
	special := specialFloats()
	var x, g []float32
	for _, a := range special {
		for _, b := range special {
			x, g = append(x, a), append(g, b)
		}
	}
	check := func(what string, x, g []float32) {
		t.Helper()
		n := len(x)
		y, want, got := make([]float32, n), make([]float32, n), make([]float32, n)
		Relu(y, x)
		ReluGrad(want, g, x)
		ReluGrad(got, g, y)
		bitEqual(t, what, got, want)
		reluGo(y, x)
		reluGradGo(want, g, x)
		reluGradGo(got, g, y)
		bitEqual(t, what+", Go loops", got, want)
	}
	check("every special pair", x, g)
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 67; n++ {
		check(fmt.Sprintf("%d awkward floats", n), awkward(rng, n), awkward(rng, n))
	}
}

// TestBiasReluIsBiasAddThenRelu: BiasRelu, the session's BiasAdd folded
// into the Relu that reads it, is BiasAdd then Relu bit for bit, into a
// fresh dst and in place. Every pair of special values as an element and
// a bias (NaN payloads of both signs, ±0, ±Inf, subnormals); then every
// length 0 to 67 of awkward floats that 1 to 17 channels divide, at
// offsets 0 to 3 into the buffer; then rows that cross BiasRelu's
// blocks, and one row wider than a block. The dispatching kernels and
// the Go loops alike; on a CPU without AVX both are the Go loop.
func TestBiasReluIsBiasAddThenRelu(t *testing.T) {
	check := func(what string, x, bias []float32, off int) {
		t.Helper()
		want, got := make([]float32, len(x)), shifted(make([]float32, len(x)), (off+2)%4)
		BiasAdd(want, x, bias)
		Relu(want, want)
		BiasRelu(got, x, bias)
		bitEqual(t, what, got, want)
		got = shifted(x, off)
		BiasRelu(got, got, bias)
		bitEqual(t, what+", in place", got, want)

		biasAddGo(want, x, bias)
		reluGo(want, want)
		biasReluGo(got, x, bias)
		bitEqual(t, what+", Go loops", got, want)
	}
	special := specialFloats()
	var x []float32
	for _, a := range special {
		x = append(x, special...)
		for j := len(x) - len(special); j < len(x); j++ {
			x[j] = a
		}
	}
	check("every special pair", x, special, 0)
	rng := rand.New(rand.NewSource(42))
	for c := 1; c <= 17; c++ {
		for n := 0; n <= 67; n += c {
			for off := 0; off < 4; off++ {
				check(fmt.Sprintf("%d awkward floats over %d channels at offset %d", n, c, off),
					shifted(awkward(rng, n), off), shifted(awkward(rng, c), (off+1)%4), off)
			}
		}
	}
	for _, c := range []int{8, 10, 512, biasReluBlock + 3} {
		n := c * (2*biasReluBlock/c + 3)
		check(fmt.Sprintf("%d awkward floats over %d channels", n, c), awkward(rng, n), awkward(rng, c), 1)
	}
}

// TestMaxPoolGradEdges: the 2×2 gradient writes every element of dx,
// whatever it held. The edge of an odd extent no window covers reads +0,
// a gradient of -0 reads +0 (+0 + -0), and a window of -Inf alone, whose
// argmax is -1, is +0 throughout. A pool over another shape, or another
// window, takes the scatter, which refuses an argmax outside dx.
func TestMaxPoolGradEdges(t *testing.T) {
	negZero, negInf := float32(math.Copysign(0, -1)), float32(math.Inf(-1))
	for _, c := range []int{1, 8, 10} {
		g, err := PoolGeom([]int{2, 5, 7, c}, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		x := randFloats(rand.New(rand.NewSource(41)), g.N*g.H*g.W*g.C)
		for i := 0; i < c; i++ { // the first window holds -Inf alone
			x[i], x[c+i], x[g.W*c+i], x[(g.W+1)*c+i] = negInf, negInf, negInf, negInf
		}
		outs := g.N * g.OH * g.OW * g.C
		pooled, argmax := make([]float32, outs), make([]int32, outs)
		MaxPool(pooled, x, g, argmax)
		for i := 0; i < c; i++ {
			if argmax[i] != -1 {
				t.Fatalf("c %d: the -Inf window's argmax[%d] = %d, want -1", c, i, argmax[i])
			}
		}
		for _, gv := range []float32{negZero, 1.5} {
			grad := make([]float32, outs)
			for i := range grad {
				grad[i] = gv
			}
			dx := make([]float32, len(x))
			for i := range dx {
				dx[i] = float32(math.NaN()) // stale
			}
			if err := MaxPoolGrad(dx, grad, argmax, g); err != nil {
				t.Fatal(err)
			}
			var routed int
			for i, v := range dx {
				b := math.Float32bits(v)
				switch {
				case b == math.Float32bits(gv) && gv != negZero:
					routed++
				case b != 0:
					t.Fatalf("c %d, grad %v: dx[%d] = %v (bits %#x), want +0 or the gradient", c, gv, i, v, b)
				}
			}
			if want := outs - c; gv != negZero && routed != want {
				t.Fatalf("c %d: %d elements received the gradient, want %d (every window but the -Inf one)", c, routed, want)
			}
		}
	}

	// The scatter: a pool of [1,4,4,1] read back through a [1,2,2,1] x.
	big, _ := PoolGeom([]int{1, 4, 4, 1}, 2, 2)
	x := make([]float32, 16)
	for i := range x {
		x[i] = float32(i)
	}
	pooled, argmax := make([]float32, 4), make([]int32, 4)
	MaxPool(pooled, x, big, argmax)
	if err := MaxPoolGrad(make([]float32, 4), pooled, argmax, Geom{}); err == nil {
		t.Error("an argmax outside dx was accepted")
	}
	if err := MaxPoolGrad(make([]float32, 16), pooled[:3], argmax, big); err == nil {
		t.Error("a gradient shorter than the argmax was accepted")
	}
	if err := BiasAddGrad(make([]float32, 1), pooled, 0); err == nil {
		t.Error("a bias gradient over 0 channels was accepted")
	}
}

// FuzzMaxPool2x2 holds the 2×2 stride-2 path, values and argmax, to
// maxPoolGeneric bit for bit on arbitrary bit patterns and extents.
func FuzzMaxPool2x2(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(4), uint8(8), []byte("\x00\x00\x80\x3f\x00\x00\x00\x80\x01\x00\x00\x00\x00\x00\x80\xff"))
	f.Add(uint8(2), uint8(5), uint8(7), uint8(10), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(2), uint8(2), uint8(16), []byte{0, 0, 0x80, 0xff})
	f.Add(uint8(3), uint8(6), uint8(3), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, n8, h8, w8, c8 uint8, data []byte) {
		shape := []int{1 + int(n8%3), 2 + int(h8%7), 2 + int(w8%7), 1 + int(c8%24)}
		g, err := PoolGeom(shape, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 4 {
			data = append(data, 0, 0, 0x80, 0xff)
		}
		x := make([]float32, g.N*g.H*g.W*g.C)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[(4*i)%(len(data)-3):]))
		}
		outs := g.N * g.OH * g.OW * g.C
		want, wantArg := make([]float32, outs), make([]int32, outs)
		maxPoolGeneric(want, x, g, wantArg)
		got, gotArg := make([]float32, outs), make([]int32, outs)
		MaxPool(got, x, g, gotArg)
		bitEqual(t, fmt.Sprint(shape), got, want)
		argEqual(t, fmt.Sprint(shape), gotArg, wantArg)
	})
}

// TestElementwiseDoNotAllocate: a warm call of every loop with an
// assembly twin allocates nothing.
func TestElementwiseDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := PoolGeom([]int{2, 8, 8, 16}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, bias := randFloats(rng, g.N*g.H*g.W*g.C), randFloats(rng, g.C)
	out, dx := make([]float32, len(x)), make([]float32, len(x))
	pooled, argmax := make([]float32, g.N*g.OH*g.OW*g.C), make([]int32, g.N*g.OH*g.OW*g.C)
	run := func() {
		Relu(out, x)
		ReluGrad(out, x, x)
		BiasAdd(out, x, bias)
		if err := BiasAddGrad(bias, x, g.C); err != nil {
			t.Fatal(err)
		}
		MaxPool(pooled, x, g, argmax)
		if err := MaxPoolGrad(dx, pooled, argmax, g); err != nil {
			t.Fatal(err)
		}
		addRuns(dx, x, 40, 5, g.W*g.C, 40)
		copyRuns(dx, x, 40, 5, g.W*g.C, 40)
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("a warm pass of the element-wise kernels made %v allocations, want 0", allocs)
	}
}
