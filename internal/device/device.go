// Package device abstracts where tensor computation runs and how its
// costs are charged to the simulation's virtual clock.
//
// The TensorFlow and TensorFlow Lite engines execute real numerics but
// report their work (FLOPs and bytes of memory traffic) to a Device; the
// device converts that work into virtual time according to the execution
// environment it models: a plain CPU, a SCONE enclave in HW or SIM mode,
// or a no-cost null device for unit tests.
package device

import (
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

// Device receives work reports from compute kernels.
type Device interface {
	// Name identifies the device in logs and experiment output.
	Name() string
	// Threads is the number of execution contexts kernels may use: both
	// engines split a matrix product of few rows over large weights into
	// column blocks across them. It also sets the parallelism assumed
	// when converting FLOPs to time, for both engines.
	Threads() int
	// Compute charges flops of arithmetic across the device's threads.
	Compute(flops int64)
	// Access charges bytes of memory traffic. streaming marks sequential
	// read-only traffic (cheap to page), as opposed to reused read-write
	// working sets (expensive to page once over the EPC).
	Access(bytes int64, streaming bool)
	// Alloc registers a writable long-lived allocation (arenas,
	// variables); AllocReadOnly registers read-only data (streamed
	// weights), which enclaves can evict cheaply. Free releases either.
	Alloc(name string, bytes int64)
	AllocReadOnly(name string, bytes int64)
	Free(name string)
	// Clock returns the virtual clock costs are charged to.
	Clock() *vtime.Clock
}

// Null is a Device that charges nothing. Useful for numerical unit tests.
type Null struct{ clock vtime.Clock }

var _ Device = (*Null)(nil)

// NewNull creates a no-cost device.
func NewNull() *Null { return &Null{} }

func (n *Null) Name() string                { return "null" }
func (n *Null) Threads() int                { return 1 }
func (n *Null) Compute(int64)               {}
func (n *Null) Access(int64, bool)          {}
func (n *Null) Alloc(string, int64)         {}
func (n *Null) AllocReadOnly(string, int64) {}
func (n *Null) Free(string)                 {}
func (n *Null) Clock() *vtime.Clock         { return &n.clock }

// CPU models an untrusted host CPU with a given libc flavor. The libc
// factor captures the small performance differences between glibc and
// musl that the paper discusses in §5.3 ("glibc has the edge over musl in
// most areas").
type CPU struct {
	name       string
	meter      sgx.Meter
	threads    int
	libcFactor float64
}

var _ Device = (*CPU)(nil)

// Libc factors relative to glibc.
const (
	LibcGlibcFactor = 1.0
	LibcMuslFactor  = 1.03
)

// NewCPU creates a CPU device charging the meter's clock at its prices.
func NewCPU(name string, meter sgx.Meter, threads int, libcFactor float64) *CPU {
	if threads < 1 {
		threads = 1
	}
	if libcFactor <= 0 {
		libcFactor = 1.0
	}
	return &CPU{name: name, meter: meter, threads: threads, libcFactor: libcFactor}
}

func (c *CPU) Name() string                { return c.name }
func (c *CPU) Threads() int                { return c.threads }
func (c *CPU) Clock() *vtime.Clock         { return c.meter.Clock() }
func (c *CPU) Alloc(string, int64)         {}
func (c *CPU) AllocReadOnly(string, int64) {}
func (c *CPU) Free(string)                 {}

func (c *CPU) Compute(flops int64) { c.meter.Compute(float64(flops)*c.libcFactor, c.threads) }

func (c *CPU) Access(bytes int64, _ bool) { c.meter.Memory(float64(bytes) * c.libcFactor) }

// Enclave is a Device backed by a simulated SGX enclave: compute is full
// speed (modulo the runtime's libc factor), memory traffic pays MEE and
// paging costs per the enclave's mode and working set.
type Enclave struct {
	name    string
	enclave *sgx.Enclave
	threads int
	factor  float64
}

var _ Device = (*Enclave)(nil)

// NewEnclave wraps an enclave as a compute device with the given thread
// count. libcFactor scales compute cost for the runtime's libc flavor
// (SCONE's libc is musl-derived); pass 0 for 1.0.
func NewEnclave(name string, e *sgx.Enclave, threads int, libcFactor float64) *Enclave {
	if threads < 1 {
		threads = 1
	}
	if libcFactor <= 0 {
		libcFactor = 1.0
	}
	return &Enclave{name: name, enclave: e, threads: threads, factor: libcFactor}
}

func (d *Enclave) Name() string        { return d.name }
func (d *Enclave) Threads() int        { return d.threads }
func (d *Enclave) Clock() *vtime.Clock { return d.enclave.Clock() }

func (d *Enclave) Compute(flops int64) {
	d.enclave.Compute(int64(float64(flops)*d.factor), d.threads)
}

func (d *Enclave) Access(bytes int64, streaming bool) {
	pattern := sgx.AccessRandom
	if streaming {
		pattern = sgx.AccessStreaming
	}
	d.enclave.Access(bytes, pattern)
}

func (d *Enclave) Alloc(name string, bytes int64)         { d.enclave.Alloc(name, bytes) }
func (d *Enclave) AllocReadOnly(name string, bytes int64) { d.enclave.AllocReadOnly(name, bytes) }
func (d *Enclave) Free(name string)                       { d.enclave.Free(name) }
