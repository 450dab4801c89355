package federated

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/securetf/securetf/internal/tf/kernels"
)

// TestSharedPoolBitEqual: callers at once mix the kernels' column splits
// of two shapes (seven rows over 2048×2048 weights on four threads,
// serve-steady's GEMV on eight) and mask folds dealt two and seven ways
// on the one pool, and every result is bit-equal to the serial one. The
// widest call is eight threads, so however they interleave, no more
// than min(8, GOMAXPROCS)−1 helpers are ever started.
func TestSharedPoolBitEqual(t *testing.T) {
	const widest = 8
	bound := max(helpers(), min(widest, runtime.GOMAXPROCS(0))-1)
	rng := rand.New(rand.NewSource(36))
	floats := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	type product struct {
		name             string
		m, k, n, threads int
		a, b, want       []float32
	}
	products := []product{
		{name: "seven-row column split", m: 7, k: 2048, n: 2048, threads: 4},
		{name: "one-row column split", m: 1, k: 2048, n: 2048, threads: widest},
	}
	for i := range products {
		p := &products[i]
		p.a, p.b, p.want = floats(p.m*p.k), floats(p.k*p.n), make([]float32, p.m*p.n)
		kernels.MatMulInto(p.want, p.a, p.b, p.m, p.k, p.n, 1)
	}

	const width = 2
	cohort := cohortOf(20)
	var streams []maskStream
	for _, peer := range cohort[1:] {
		streams = append(streams, maskStream{roundKey(pairSeed(testSecret, 0, peer), 4), true})
	}
	fresh := func() [][]byte {
		payloads := mlpUpdate(width)
		for n, p := range payloads {
			for i := range p {
				p[i] = byte(i*5 + n)
			}
		}
		return payloads
	}
	wantMask := fresh()
	applyMasksSplit(wantMask, 1, width, streams)

	const callers, calls = 4, 3
	var wg sync.WaitGroup
	for w := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				for _, p := range products {
					got := make([]float32, p.m*p.n)
					kernels.MatMulInto(got, p.a, p.b, p.m, p.k, p.n, p.threads)
					for j := range got {
						if math.Float32bits(got[j]) != math.Float32bits(p.want[j]) {
							t.Errorf("caller %d, call %d, %s: element %d = %v, want %v", w, i, p.name, j, got[j], p.want[j])
							return
						}
					}
				}
				for _, workers := range []int{2, 7} {
					got := fresh()
					applyMasksSplit(got, workers, width, streams)
					for n := range got {
						if !bytes.Equal(got[n], wantMask[n]) {
							t.Errorf("caller %d, call %d, mask fold over %d: variable %d differs from the serial fold", w, i, workers, n)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := helpers(); got > bound {
		t.Errorf("%d helpers started, want at most %d at GOMAXPROCS %d", got, bound, runtime.GOMAXPROCS(0))
	}
}

// helpers counts the goroutines running internal/par's helper loop.
func helpers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "internal/par.(*helper).loop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
