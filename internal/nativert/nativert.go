// Package nativert provides the unprotected baseline runtimes the paper
// compares against: native execution with glibc (Ubuntu) and with musl
// libc (Alpine), no enclave, no shields.
package nativert

import (
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/sysio"
)

// Libc selects the C library flavor of the native baseline.
type Libc int

const (
	// Glibc is the GNU C library (performance-tailored).
	Glibc Libc = iota + 1
	// Musl is the small-footprint musl libc used by Alpine.
	Musl
)

// String returns the figure label for the libc flavor.
func (l Libc) String() string {
	switch l {
	case Glibc:
		return "glibc"
	case Musl:
		return "musl"
	default:
		return "invalid"
	}
}

func (l Libc) factor() float64 {
	if l == Musl {
		return device.LibcMuslFactor
	}
	return device.LibcGlibcFactor
}

// Config configures a native runtime.
type Config struct {
	// Meter charges the runtime's clock at its machine's prices.
	// Required.
	Meter sgx.Meter
	// Libc selects glibc or musl. Defaults to Glibc.
	Libc Libc
	// HostFS is the host file system. Required.
	HostFS fsapi.FS
	// Threads is the default device thread count. Defaults to the
	// physical core count.
	Threads int
}

// Runtime is a native (unprotected) execution environment.
type Runtime struct {
	cfg Config
}

// Launch validates the configuration and returns the runtime.
func Launch(cfg Config) (*Runtime, error) {
	if cfg.Meter.Clock() == nil {
		return nil, fmt.Errorf("nativert: Config.Meter is required")
	}
	if cfg.HostFS == nil {
		return nil, fmt.Errorf("nativert: Config.HostFS is required")
	}
	if cfg.Libc == 0 {
		cfg.Libc = Glibc
	}
	if cfg.Threads <= 0 {
		cfg.Threads = cfg.Meter.Params().PhysicalCores
	}
	return &Runtime{cfg: cfg}, nil
}

// Name identifies the runtime, e.g. "native-glibc".
func (r *Runtime) Name() string { return "native-" + r.cfg.Libc.String() }

// Enclave returns nil: native runtimes have no enclave.
func (r *Runtime) Enclave() *sgx.Enclave { return nil }

// Device returns a CPU device with the runtime's libc factor.
func (r *Runtime) Device(threads int) device.Device {
	if threads <= 0 {
		threads = r.cfg.Threads
	}
	return device.NewCPU(r.Name(), r.cfg.Meter, threads, r.cfg.Libc.factor())
}

// Syscall charges an ordinary kernel crossing.
func (r *Runtime) Syscall() { r.cfg.Meter.NativeSyscall() }

// CopyIn charges nothing: there is no enclave boundary to copy across.
func (r *Runtime) CopyIn(int) {}

// CopyOut charges nothing, as CopyIn.
func (r *Runtime) CopyOut(int) {}

// FS returns the host file system with native syscall costs.
func (r *Runtime) FS() fsapi.FS { return sysio.NewFS(r, r.cfg.HostFS) }

// Dial opens a TCP connection.
func (r *Runtime) Dial(network, addr string) (net.Conn, error) {
	r.Syscall()
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("nativert: dial %s: %w", addr, err)
	}
	return conn, nil
}

// Listen opens a TCP listener.
func (r *Runtime) Listen(network, addr string) (net.Listener, error) {
	r.Syscall()
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("nativert: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Close releases nothing; native runtimes hold no resources.
func (r *Runtime) Close() error { return nil }
