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
	"github.com/securetf/securetf/internal/tf/kernels"
	"github.com/securetf/securetf/internal/tflite"
	"github.com/securetf/securetf/internal/vtime"
)

// densenet is serve-steady's model, built once per test binary: the
// allocation step runs this file thirty times.
var densenet = sync.OnceValue(func() *tflite.Model { return models.BuildInferenceModel(models.Densenet) })

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

// TestWarmColumnSplitAllocation: the column split hands its blocks to
// parked helpers and recycles what it shares with them, so once warm it
// allocates nothing, and serving a request on a device of two threads
// allocates no more than on one.
func TestWarmColumnSplitAllocation(t *testing.T) {
	const m, k, n = 1, 2048, 2048
	rng := rand.New(rand.NewSource(8))
	a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	split := func() { clear(c); kernels.MatMulInto(c, a, b, m, k, n, 2) }
	split()
	if got := allocated(split); got != 0 {
		t.Errorf("a warm column split of m%d·k%d·n%d allocated %d bytes, want 0", m, k, n, got)
	}

	input := models.RandomImageInput(models.Densenet, 1, 3)
	perInvoke := func(threads int) uint64 {
		var clock vtime.Clock
		dev := device.NewCPU("cpu", sgx.NewMeter(&clock, sgx.DefaultParams()), threads, device.LibcGlibcFactor)
		ip, err := tflite.NewInterpreter(densenet(), tflite.WithDevice(dev))
		if err != nil {
			t.Fatal(err)
		}
		defer ip.Close()
		if err := ip.AllocateTensors(); err != nil {
			t.Fatal(err)
		}
		invoke := func() {
			if err := ip.SetInput(0, input); err != nil {
				t.Fatal(err)
			}
			if err := ip.Invoke(); err != nil {
				t.Fatal(err)
			}
		}
		invoke()
		return allocated(invoke)
	}
	one, two := perInvoke(1), perInvoke(2)
	if two > one {
		t.Errorf("a warm batch-1 densenet Invoke allocated %d bytes on two threads, %d on one", two, one)
	}
	t.Logf("a warm batch-1 densenet Invoke allocated %d bytes on two threads, %d on one", two, one)
}
