package ring

import (
	"math/rand"
	"os"
	"testing"

	"github.com/securetf/securetf/internal/cpu"
	"github.com/securetf/securetf/internal/twintest"
)

// mlpCoords is one fed-round update: the MNIST MLP's coordinates.
const mlpCoords = 101770

// twins are the package's fast paths at fed-round's shape: every
// compute routine of its assembly has exactly one row
// (TestAssemblyContract).
var twins = []twintest.Row{
	{Name: "fold/fed-round/mlp_101770_width2", Routine: "foldSSE2", Needs: true, Floor: 0, Setup: func(*rand.Rand) (func(), func()) {
		dst, src := filled(2*mlpCoords, 8), filled(2*mlpCoords, 9)
		top := laneTops(len(dst), 2)
		return func() { fold(dst, src, top, 0) }, func() { foldSWAR(dst, src, top, 0) }
	}},
	{Name: "quantize_int8/fed-round/mlp_101770", Routine: "quantizeInt8AVX", Needs: cpu.AVX, Floor: 3, Setup: func(*rand.Rand) (func(), func()) {
		delta, residual := awkwardInt8(mlpCoords, int8Step, 7)
		for i := range delta { // the in-range mix a trained update has
			if i%5 != 2 {
				delta[i], residual[i] = float32(i%255-127)*int8Step*0.9, float32(i%7)*int8Step*0.1
			}
		}
		dst, next := make([]byte, 2*mlpCoords), make([]float32, mlpCoords)
		return func() { QuantizeInt8(dst, delta, residual, next, int8Step) },
			func() { quantizeInt8Go(dst, delta, residual, next, int8Step) }
	}},
}

// BenchmarkTwins times each row's fast path against its twin.
func BenchmarkTwins(b *testing.B) { twintest.Bench(b, twins) }

// TestAssemblyContract holds the package's assembly to the twins table.
func TestAssemblyContract(t *testing.T) { twintest.Contract(t, os.DirFS("."), twins) }
