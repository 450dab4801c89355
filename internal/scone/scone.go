// Package scone simulates the SCONE shielded-execution runtime that
// secureTF builds on (Arnautov et al., OSDI 2016): a small musl-derived
// libc inside the enclave, an exit-less asynchronous system-call ring
// serviced by threads outside the enclave, and a user-level M:N
// scheduler that multiplexes application threads onto a few enclave
// execution contexts.
//
// The ring and the scheduler are modelled as charges, not run:
//
//   - every system call costs AsyncSyscallCost on the virtual clock and
//     no enclave transition, and the host call then runs on the calling
//     goroutine;
//   - launching enters the enclave once per execution context, one
//     transition each of EnclaveThreads;
//   - EnclaveThreads is the thread count of the runtime's compute
//     device, so the scheduler's parallelism is the device's.
//
// The runtime is where the secureTF "controller" (paper Fig. 3) lives:
// it owns the enclave, interposes on file and network I/O, and hosts the
// shields layered on top.
package scone

import (
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/sysio"
)

// Config configures a SCONE runtime instance.
type Config struct {
	// Platform is the SGX platform to create the enclave on. Required.
	Platform *sgx.Platform
	// Mode selects HW or SIM execution. Required.
	Mode sgx.Mode
	// Image is the application image loaded into the enclave. Required.
	Image sgx.Image
	// HostFS is the untrusted host file system the runtime proxies
	// syscalls to. Required.
	HostFS fsapi.FS
	// EnclaveThreads is the number of enclave execution contexts
	// (thread control structures). Defaults to the platform's physical
	// core count.
	EnclaveThreads int
}

// Runtime is a running SCONE container: an enclave plus its interposed
// I/O.
type Runtime struct {
	cfg     Config
	enclave *sgx.Enclave
}

// Launch creates the enclave and enters it.
func Launch(cfg Config) (*Runtime, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("scone: Config.Platform is required")
	}
	if cfg.HostFS == nil {
		return nil, fmt.Errorf("scone: Config.HostFS is required")
	}
	if cfg.EnclaveThreads <= 0 {
		cfg.EnclaveThreads = cfg.Platform.Params().PhysicalCores
	}
	enclave, err := cfg.Platform.CreateEnclave(cfg.Image, cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("scone: creating enclave: %w", err)
	}
	// Entering the enclave for the first time costs one transition per
	// execution context.
	for i := 0; i < cfg.EnclaveThreads; i++ {
		enclave.Transition()
	}
	return &Runtime{cfg: cfg, enclave: enclave}, nil
}

// Name identifies the runtime variant, e.g. "scone-hw".
func (r *Runtime) Name() string {
	if r.enclave.Mode() == sgx.ModeHW {
		return "scone-hw"
	}
	return "scone-sim"
}

// Enclave returns the runtime's enclave.
func (r *Runtime) Enclave() *sgx.Enclave { return r.enclave }

// Device returns a compute device bound to the enclave with the given
// thread count (0 means all enclave threads). SCONE's libc is
// musl-derived, so the musl factor applies.
func (r *Runtime) Device(threads int) device.Device {
	if threads <= 0 {
		threads = r.cfg.EnclaveThreads
	}
	return device.NewEnclave(r.Name(), r.enclave, threads, device.LibcMuslFactor)
}

// Syscall charges one call on the asynchronous syscall interface: the
// enqueue cost and no enclave transition — that is the point of the
// design.
func (r *Runtime) Syscall() { r.enclave.AsyncSyscall() }

// CopyIn charges moving n bytes across the enclave boundary into
// protected memory (Enclave.CopyBoundary).
func (r *Runtime) CopyIn(n int) { r.enclave.CopyBoundary(n) }

// CopyOut charges moving n bytes out of the enclave, as CopyIn.
func (r *Runtime) CopyOut(n int) { r.enclave.CopyBoundary(n) }

// FS returns the runtime's syscall-interposed view of the host file
// system. Data crossing the boundary is charged; contents are NOT
// protected — layer a file-system shield on top for that.
func (r *Runtime) FS() fsapi.FS { return sysio.NewFS(r, r.cfg.HostFS) }

// Dial opens a TCP connection through the syscall interface.
func (r *Runtime) Dial(network, addr string) (net.Conn, error) {
	return sysio.Dial(r, network, addr)
}

// Listen opens a TCP listener through the syscall interface.
func (r *Runtime) Listen(network, addr string) (net.Listener, error) {
	return sysio.Listen(r, network, addr)
}

// Close destroys the enclave.
func (r *Runtime) Close() error {
	r.enclave.Destroy()
	return nil
}
