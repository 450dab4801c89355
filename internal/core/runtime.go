package core

import (
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/sysio"
)

// runtime is what runs under a container: one of the five systems of
// the paper's Figure 5. They make the same calls, through internal/sysio;
// the kind decides only what the enclave holds and what a crossing to
// the host costs (Syscall, CopyIn and CopyOut make runtime a
// sysio.Boundary).
//
// SCONE (Arnautov et al., OSDI 2016) is the shielded-execution runtime
// secureTF builds on: a small musl-derived libc inside the enclave, an
// exit-less asynchronous system-call ring serviced by threads outside
// the enclave, and a user-level M:N scheduler that multiplexes
// application threads onto a few enclave execution contexts. The ring
// and the scheduler are modelled as charges, not run:
//
//   - every system call costs AsyncSyscallCost on the virtual clock and
//     no enclave transition, and the host call then runs on the calling
//     goroutine;
//   - launching enters the enclave once per execution context, one
//     transition for each of the container's threads;
//   - that thread count is the compute device's, so the scheduler's
//     parallelism is the device's.
//
// SCONE is where the secureTF "controller" (paper Fig. 3) lives: it owns
// the enclave, interposes on file and network I/O, and hosts the shields
// layered on top.
//
// Graphene-SGX (Tsai et al., USENIX ATC 2017) is the baseline the paper
// compares against. It differs from SCONE in two ways that matter for
// the evaluation:
//
//  1. It loads a complete library OS (including glibc) into the enclave,
//     so the in-enclave footprint is tens of megabytes larger
//     (libOSSize). Once the application's model pushes the working set
//     past the EPC, Graphene pays proportionally more paging.
//  2. System calls are synchronous: each one exits and re-enters the
//     enclave (a transition round trip) instead of being queued to
//     outside threads.
//
// Graphene always runs in hardware mode: the paper's Graphene numbers
// are HW only.
//
// The native baselines run with glibc (Ubuntu) or musl libc (Alpine):
// no enclave, no shields, a kernel crossing per system call, and their
// sockets are sysio's bare ones.
type runtime struct {
	kind    RuntimeKind
	meter   sgx.Meter
	enclave *sgx.Enclave // nil for the native kinds
}

// runtimeRows is each kind's label in the paper's figures, its name in
// experiment output, its enclave's mode (none for the native kinds) and
// its libc's compute factor: SCONE's libc is musl-derived, Graphene links
// glibc.
var runtimeRows = [...]struct {
	label, name string
	mode        sgx.Mode
	libc        float64
}{
	RuntimeSconeHW:     {"HW", "scone-hw", sgx.ModeHW, device.LibcMuslFactor},
	RuntimeSconeSIM:    {"Sim", "scone-sim", sgx.ModeSIM, device.LibcMuslFactor},
	RuntimeGraphene:    {"Graphene", "graphene", sgx.ModeHW, device.LibcGlibcFactor},
	RuntimeNativeGlibc: {"Native glibc", "native-glibc", 0, device.LibcGlibcFactor},
	RuntimeNativeMusl:  {"Native musl", "native-musl", 0, device.LibcMuslFactor},
}

// Graphene's library OS: its in-enclave image (PAL + libOS + glibc and
// friends), and the bookkeeping state (file descriptor tables, handle
// maps) its syscall emulation touches on every call.
const (
	libOSSize       int64 = 48 << 20
	libOSStateTouch       = 4 << 10
)

// launchRuntime creates and enters cfg's enclave, if its kind has one.
func launchRuntime(cfg Config) (runtime, error) {
	r := runtime{kind: cfg.Kind, meter: cfg.Platform.Meter()}
	if !cfg.Kind.Shielded() {
		return r, nil
	}
	e, err := cfg.Platform.CreateEnclave(cfg.Image, runtimeRows[cfg.Kind].mode)
	if err != nil {
		return r, fmt.Errorf("core: creating the %v enclave: %w", cfg.Kind, err)
	}
	if cfg.Kind == RuntimeGraphene {
		e.Alloc("graphene-libos", libOSSize)
	} else {
		for range cfg.Threads {
			e.Transition()
		}
	}
	r.enclave = e
	return r, nil
}

// Syscall charges one system call: SCONE's enqueue on the exit-less
// ring, with no transition (that is the point of the design); Graphene's
// full transition round trip, plus a touch of library-OS state on the
// way through; a native kernel crossing.
func (r *runtime) Syscall() {
	switch {
	case r.enclave == nil:
		r.meter.NativeSyscall()
	case r.kind == RuntimeGraphene:
		r.enclave.Transition()
		r.enclave.Access(libOSStateTouch, sgx.AccessRandom)
	default:
		r.enclave.AsyncSyscall()
	}
}

// CopyIn charges moving n bytes into the enclave: Enclave.CopyBoundary,
// which is streaming traffic in HW mode (so Graphene's too), and nothing
// natively, where there is no boundary.
func (r *runtime) CopyIn(n int) {
	if r.enclave != nil {
		r.enclave.CopyBoundary(n)
	}
}

// CopyOut charges moving n bytes out of the enclave, as CopyIn.
func (r *runtime) CopyOut(n int) { r.CopyIn(n) }

// dial and listen open sockets through the runtime's syscall interface:
// sysio's charged sockets in an enclave, its bare ones natively.
func (r *runtime) dial(network, addr string) (net.Conn, error) {
	if r.enclave == nil {
		return sysio.DialBare(r, network, addr)
	}
	return sysio.Dial(r, network, addr)
}

func (r *runtime) listen(network, addr string) (net.Listener, error) {
	if r.enclave == nil {
		return sysio.ListenBare(r, network, addr)
	}
	return sysio.Listen(r, network, addr)
}
