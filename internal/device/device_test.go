package device

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

func newClockAndParams() (*vtime.Clock, sgx.Params) {
	return new(vtime.Clock), sgx.DefaultParams()
}

func TestInterfaceCompliance(t *testing.T) {
	// Compile-time checks live here because the package has no other
	// var block; keeping them in a test avoids exporting test-only
	// globals.
	var _ Device = (*CPU)(nil)
	var _ Device = (*Enclave)(nil)
	var _ Device = (*Null)(nil)
}

func TestCPUComputeChargesClock(t *testing.T) {
	clock, params := newClockAndParams()
	dev := NewCPU("host", sgx.NewMeter(clock, params), 1, LibcGlibcFactor)
	before := clock.Now()
	dev.Compute(int64(params.CoreFLOPS)) // one core-second of work
	charged := clock.Now() - before
	if charged < 900*time.Millisecond || charged > 1100*time.Millisecond {
		t.Fatalf("one core-second charged %v", charged)
	}
}

func TestCPUThreadsDivideComputeTime(t *testing.T) {
	clock1, params := newClockAndParams()
	one := NewCPU("host1", sgx.NewMeter(clock1, params), 1, LibcGlibcFactor)
	clock4, _ := newClockAndParams()
	four := NewCPU("host4", sgx.NewMeter(clock4, params), 4, LibcGlibcFactor)

	const work = 1 << 30
	one.Compute(work)
	four.Compute(work)
	ratio := float64(clock1.Now()) / float64(clock4.Now())
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4-thread speedup %.2f, want ≈ 4", ratio)
	}
}

func TestCPUHyperThreadEfficiency(t *testing.T) {
	// Beyond the physical core count extra threads only add the
	// hyper-thread margin (the paper's desktop has 4 cores, 8 HT).
	_, params := newClockAndParams()
	clock4 := new(vtime.Clock)
	clock8 := new(vtime.Clock)
	phys := NewCPU("c4", sgx.NewMeter(clock4, params), params.PhysicalCores, LibcGlibcFactor)
	ht := NewCPU("c8", sgx.NewMeter(clock8, params), 2*params.PhysicalCores, LibcGlibcFactor)
	const work = 1 << 30
	phys.Compute(work)
	ht.Compute(work)
	ratio := float64(clock4.Now()) / float64(clock8.Now())
	if ratio <= 1.0 {
		t.Fatalf("hyper-threads gave no speedup (%.2f)", ratio)
	}
	if ratio >= 1.9 {
		t.Fatalf("hyper-threads counted as full cores (%.2f)", ratio)
	}
}

func TestCPUMuslFactorSlower(t *testing.T) {
	_, params := newClockAndParams()
	clockG := new(vtime.Clock)
	clockM := new(vtime.Clock)
	glibc := NewCPU("g", sgx.NewMeter(clockG, params), 1, LibcGlibcFactor)
	musl := NewCPU("m", sgx.NewMeter(clockM, params), 1, LibcMuslFactor)
	const work = 1 << 30
	glibc.Compute(work)
	musl.Compute(work)
	if clockM.Now() <= clockG.Now() {
		t.Fatalf("musl (%v) not slower than glibc (%v)", clockM.Now(), clockG.Now())
	}
}

func TestCPUAccessChargesBandwidth(t *testing.T) {
	clock, params := newClockAndParams()
	dev := NewCPU("host", sgx.NewMeter(clock, params), 1, LibcGlibcFactor)
	dev.Access(int64(params.MemBandwidth), false) // one second of traffic
	if got := clock.Now(); got < 900*time.Millisecond || got > 1100*time.Millisecond {
		t.Fatalf("one bandwidth-second charged %v", got)
	}
}

func TestCPUAllocFreeAreNoops(t *testing.T) {
	clock, params := newClockAndParams()
	dev := NewCPU("host", sgx.NewMeter(clock, params), 1, LibcGlibcFactor)
	dev.Alloc("arena", 1<<30)
	dev.AllocReadOnly("weights", 1<<30)
	dev.Free("arena")
	if clock.Now() != 0 {
		t.Fatalf("allocation charged time on a plain CPU: %v", clock.Now())
	}
	if dev.Name() != "host" || dev.Threads() != 1 || dev.Clock() != clock {
		t.Fatal("accessor mismatch")
	}
}

func newEnclave(t *testing.T, mode sgx.Mode) *sgx.Enclave {
	t.Helper()
	platform, err := sgx.NewPlatform("dev-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := platform.CreateEnclave(sgx.SyntheticImage("app", 1<<20, 1<<20), mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(enclave.Destroy)
	return enclave
}

func TestEnclaveHWComputeSlowerThanSIM(t *testing.T) {
	hwEnc := newEnclave(t, sgx.ModeHW)
	simEnc := newEnclave(t, sgx.ModeSIM)
	hw := NewEnclave("hw", hwEnc, 1, 0)
	sim := NewEnclave("sim", simEnc, 1, 0)
	const work = 1 << 30
	hwBefore := hw.Clock().Now()
	hw.Compute(work)
	hwCost := hw.Clock().Now() - hwBefore
	simBefore := sim.Clock().Now()
	sim.Compute(work)
	simCost := sim.Clock().Now() - simBefore
	if hwCost <= simCost {
		t.Fatalf("HW compute (%v) not slower than SIM (%v)", hwCost, simCost)
	}
}

func TestEnclaveStreamingAccessCheaperThanRandom(t *testing.T) {
	enc := newEnclave(t, sgx.ModeHW)
	dev := NewEnclave("hw", enc, 1, 0)
	// Build a working set past the EPC so paging costs apply.
	dev.Alloc("set", 160<<20)
	const traffic = 64 << 20
	before := dev.Clock().Now()
	dev.Access(traffic, true)
	stream := dev.Clock().Now() - before
	before = dev.Clock().Now()
	dev.Access(traffic, false)
	random := dev.Clock().Now() - before
	if random <= stream {
		t.Fatalf("random access (%v) not dearer than streaming (%v)", random, stream)
	}
}

func TestEnclaveAllocReadOnlyCheaperPastEPC(t *testing.T) {
	// Read-only residency (streamed weights) must charge less than
	// writable residency once past the EPC — the TFLite-vs-TF mechanism.
	run := func(readonly bool) time.Duration {
		enc := newEnclave(t, sgx.ModeHW)
		dev := NewEnclave("hw", enc, 1, 0)
		if readonly {
			dev.AllocReadOnly("set", 160<<20)
		} else {
			dev.Alloc("set", 160<<20)
		}
		before := dev.Clock().Now()
		dev.Access(128<<20, true)
		return dev.Clock().Now() - before
	}
	ro, rw := run(true), run(false)
	if ro >= rw {
		t.Fatalf("read-only residency (%v) not cheaper than writable (%v)", ro, rw)
	}
}

func TestEnclaveFreeShrinksWorkingSet(t *testing.T) {
	enc := newEnclave(t, sgx.ModeHW)
	dev := NewEnclave("hw", enc, 1, 0)
	dev.Alloc("set", 160<<20)
	before := dev.Clock().Now()
	dev.Access(32<<20, false)
	pressured := dev.Clock().Now() - before
	dev.Free("set")
	before = dev.Clock().Now()
	dev.Access(32<<20, false)
	relieved := dev.Clock().Now() - before
	if relieved >= pressured {
		t.Fatalf("free did not relieve paging: %v vs %v", relieved, pressured)
	}
}

func TestNullDeviceChargesNothing(t *testing.T) {
	dev := NewNull()
	dev.Compute(1 << 40)
	dev.Access(1<<40, false)
	dev.Alloc("x", 1<<40)
	dev.AllocReadOnly("y", 1<<40)
	dev.Free("x")
	if dev.Clock().Now() != 0 {
		t.Fatalf("null device charged %v", dev.Clock().Now())
	}
	if dev.Threads() <= 0 {
		t.Fatal("null device has no threads")
	}
}

func TestComputeMonotonicProperty(t *testing.T) {
	// Property: compute cost is monotonically non-decreasing in flops.
	clock, params := newClockAndParams()
	dev := NewCPU("host", sgx.NewMeter(clock, params), 2, LibcGlibcFactor)
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		before := clock.Now()
		dev.Compute(lo)
		costLo := clock.Now() - before
		before = clock.Now()
		dev.Compute(hi)
		costHi := clock.Now() - before
		return costHi >= costLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
