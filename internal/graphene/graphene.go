// Package graphene models the Graphene-SGX library OS (Tsai et al.,
// USENIX ATC 2017), the baseline system secureTF is compared against in
// the paper's Figure 5.
//
// Architecturally Graphene differs from SCONE in two ways that matter for
// the evaluation:
//
//  1. It loads a complete library OS (including glibc) into the enclave,
//     so the in-enclave footprint is tens of megabytes larger. Once the
//     application's model pushes the working set past the EPC, Graphene
//     pays proportionally more paging.
//  2. System calls are synchronous: each one exits and re-enters the
//     enclave (a transition round trip) instead of being queued to
//     outside threads.
package graphene

import (
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/sysio"
)

// DefaultLibOSSize is the in-enclave footprint of the Graphene library OS
// image (PAL + libOS + glibc and friends).
const DefaultLibOSSize int64 = 48 << 20

// Config configures a Graphene runtime instance.
type Config struct {
	// Platform is the SGX platform. Required.
	Platform *sgx.Platform
	// Image is the application image. Required.
	Image sgx.Image
	// HostFS is the untrusted host file system. Required.
	HostFS fsapi.FS
	// Threads is the number of in-enclave threads. Defaults to the
	// platform's physical core count.
	Threads int
}

// Runtime is a running Graphene instance. Graphene always runs in
// hardware mode here; the paper's Graphene numbers are HW only.
type Runtime struct {
	cfg     Config
	enclave *sgx.Enclave
	threads int
}

// Launch creates the enclave, including the library OS footprint.
func Launch(cfg Config) (*Runtime, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("graphene: Config.Platform is required")
	}
	if cfg.HostFS == nil {
		return nil, fmt.Errorf("graphene: Config.HostFS is required")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = cfg.Platform.Params().PhysicalCores
	}
	enclave, err := cfg.Platform.CreateEnclave(cfg.Image, sgx.ModeHW)
	if err != nil {
		return nil, fmt.Errorf("graphene: creating enclave: %w", err)
	}
	enclave.Alloc("graphene-libos", DefaultLibOSSize)
	return &Runtime{cfg: cfg, enclave: enclave, threads: cfg.Threads}, nil
}

// Name identifies the runtime in experiment output.
func (r *Runtime) Name() string { return "graphene" }

// Enclave returns the runtime's enclave.
func (r *Runtime) Enclave() *sgx.Enclave { return r.enclave }

// Device returns a compute device bound to the enclave. Graphene links
// against glibc, so no musl factor applies.
func (r *Runtime) Device(threads int) device.Device {
	if threads <= 0 {
		threads = r.threads
	}
	return device.NewEnclave(r.Name(), r.enclave, threads, device.LibcGlibcFactor)
}

// Syscall charges one synchronous call: the thread exits the enclave,
// the host performs the call and the thread re-enters — one full
// transition round trip, plus a touch of library-OS state on the way
// through.
func (r *Runtime) Syscall() {
	r.enclave.Transition()
	// The libOS syscall emulation layer touches its own in-enclave state
	// (file descriptor tables, handle maps) on every call.
	r.enclave.Access(libOSStateTouch, sgx.AccessRandom)
}

// libOSStateTouch is the library-OS bookkeeping traffic per syscall.
const libOSStateTouch = 4 << 10

// FS returns the syscall-interposed host file system view.
func (r *Runtime) FS() fsapi.FS { return sysio.NewFS(r, r.cfg.HostFS) }

// Dial opens a TCP connection through the synchronous syscall path.
func (r *Runtime) Dial(network, addr string) (net.Conn, error) {
	return sysio.Dial(r, network, addr)
}

// Listen opens a TCP listener through the synchronous syscall path.
func (r *Runtime) Listen(network, addr string) (net.Listener, error) {
	return sysio.Listen(r, network, addr)
}

// CopyIn charges the enclave-boundary copy for incoming data.
func (r *Runtime) CopyIn(n int) { r.enclave.Access(int64(n), sgx.AccessStreaming) }

// CopyOut charges the enclave-boundary copy for outgoing data.
func (r *Runtime) CopyOut(n int) { r.enclave.Access(int64(n), sgx.AccessStreaming) }

// Close destroys the enclave.
func (r *Runtime) Close() error {
	r.enclave.Destroy()
	return nil
}
