package kernels_test

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
	"github.com/securetf/securetf/internal/tflite"
	"github.com/securetf/securetf/internal/vtime"
)

// densenet is serve-steady's model, built once per test binary: the
// allocation step runs this file thirty times.
var densenet = sync.OnceValue(func() *tflite.Model { return models.BuildInferenceModel(models.Densenet) })

// mnistMLP is serve-fleet's OCR stage: the MNIST MLP with a softmax head,
// frozen and lowered to the Lite format.
var mnistMLP = sync.OnceValues(func() (*tflite.Model, error) {
	h := models.MNISTMLP(1)
	probs := h.Graph.Softmax(h.Logits)
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	frozen, err := tf.Freeze(sess, []*tf.Node{probs})
	if err != nil {
		return nil, err
	}
	return tflite.Convert(frozen, []*tf.Node{frozen.Node(h.X.Name())}, []*tf.Node{frozen.Node(probs.Name())}, tflite.ConvertOptions{})
})

// outputSlack is what a warm Invoke may allocate: its output is the
// interpreter's, computed into the tensor the last Invoke used, so
// nothing but a stray header or a pool helper's wait record.
const outputSlack = 256

// allocated is the median of the bytes five calls of run allocate.
func allocated(run func()) uint64 {
	per := make([]uint64, 5)
	for i := range per {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// TestWarmSplitAllocation: a split product hands its column blocks to
// the pool's parked helpers and recycles what it shares with them, so
// once warm it allocates nothing (serve-steady's GEMV); a session
// product on four threads (train-sync's first layer) is one piece and
// allocates nothing either. A warm Invoke of serve-steady's batch-1
// densenet and of serve-fleet's batch-16 MLP allocates next to nothing:
// its output is the tensor the interpreter kept from its first Invoke,
// and its other activations lie in the slabs it laid out then, both of
// which an Invoke at the same batch keeps, and on a device of two
// threads no more than on one.
func TestWarmSplitAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct {
		name             string
		m, k, n, threads int
	}{
		{"column split", 1, 2048, 2048, 2},
		{"unsplit session product", 50, 784, 512, 4},
	} {
		a, b, c := make([]float32, tc.m*tc.k), make([]float32, tc.k*tc.n), make([]float32, tc.m*tc.n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		split := func() { clear(c); kernels.MatMulInto(c, a, b, tc.m, tc.k, tc.n, tc.threads) }
		split()
		if got := allocated(split); got != 0 {
			t.Errorf("a warm %s of m%d·k%d·n%d on %d threads allocated %d bytes, want 0", tc.name, tc.m, tc.k, tc.n, tc.threads, got)
		}
	}

	mlp, err := mnistMLP()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		model *tflite.Model
		input *tf.Tensor
	}{
		{"batch-1 densenet", densenet(), models.RandomImageInput(models.Densenet, 1, 3)},
		{"batch-16 MLP", mlp, tf.RandNormal(tf.Shape{16, 28, 28, 1}, 1, 3)},
	} {
		var output uint64
		perInvoke := func(threads int) uint64 {
			var clock vtime.Clock
			dev := device.NewCPU("cpu", sgx.NewMeter(&clock, sgx.DefaultParams()), threads, device.LibcGlibcFactor)
			ip, err := tflite.NewInterpreter(tc.model, tflite.WithDevice(dev))
			if err != nil {
				t.Fatal(err)
			}
			defer ip.Close()
			if err := ip.AllocateTensors(); err != nil {
				t.Fatal(err)
			}
			invoke := func() {
				if err := ip.SetInput(0, tc.input); err != nil {
					t.Fatal(err)
				}
				if err := ip.Invoke(); err != nil {
					t.Fatal(err)
				}
				out, err := ip.Output(0)
				if err != nil {
					t.Fatal(err)
				}
				output = uint64(out.Bytes())
			}
			invoke()
			return allocated(invoke)
		}
		one, two := perInvoke(1), perInvoke(2)
		if one > outputSlack {
			t.Errorf("a warm %s Invoke allocated %d bytes on one thread, want at most %d (its output, %d bytes, is kept)", tc.name, one, outputSlack, output)
		}
		if two > one {
			t.Errorf("a warm %s Invoke allocated %d bytes on two threads, %d on one", tc.name, two, one)
		}
		t.Logf("a warm %s Invoke allocated %d bytes on two threads, %d on one (output %d)", tc.name, two, one, output)
	}
}
