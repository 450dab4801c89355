package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
)

// kinds is each runtime kind with its name and its libc's factor.
var kinds = []struct {
	kind RuntimeKind
	name string
	libc float64
}{
	{RuntimeSconeHW, "scone-hw", device.LibcMuslFactor},
	{RuntimeSconeSIM, "scone-sim", device.LibcMuslFactor},
	{RuntimeGraphene, "graphene", device.LibcGlibcFactor},
	{RuntimeNativeGlibc, "native-glibc", device.LibcGlibcFactor},
	{RuntimeNativeMusl, "native-musl", device.LibcMuslFactor},
}

func TestRuntimeNames(t *testing.T) {
	for _, k := range kinds {
		c := launchContainer(t, k.kind)
		if got := c.Name(); got != k.name {
			t.Errorf("%v: Name = %q, want %q", k.kind, got, k.name)
		}
		if (c.Enclave() != nil) != k.kind.Shielded() {
			t.Errorf("%v: enclave %v, shielded %v", k.kind, c.Enclave(), k.kind.Shielded())
		}
	}
}

// TestRuntimeSyscallPrices: SCONE's call is an enqueue on the exit-less
// ring and no transition; Graphene's is a transition and no enqueue,
// and costs more; a native call is one kernel crossing.
func TestRuntimeSyscallPrices(t *testing.T) {
	params := sgx.DefaultParams()
	for _, k := range kinds {
		c := launchContainer(t, k.kind)
		before, start := c.EnclaveStats(), c.Clock().Now()
		for range 1000 {
			c.rt.Syscall()
		}
		after, cost := c.EnclaveStats(), c.Clock().Now()-start
		transitions, async := after.Transitions-before.Transitions, after.AsyncSyscalls-before.AsyncSyscalls
		switch k.kind {
		case RuntimeSconeHW, RuntimeSconeSIM:
			if async != 1000 || transitions != 0 {
				t.Errorf("%v: %d async calls and %d transitions, want 1000 and 0", k.kind, async, transitions)
			}
		case RuntimeGraphene:
			if async != 0 || transitions != 1000 {
				t.Errorf("%v: %d async calls and %d transitions, want 0 and 1000", k.kind, async, transitions)
			}
			if cost <= 1000*params.AsyncSyscallCost {
				t.Errorf("%v: 1000 calls cost %v, no more than SCONE's %v", k.kind, cost, 1000*params.AsyncSyscallCost)
			}
		default:
			if cost != 1000*params.NativeSyscallCost {
				t.Errorf("%v: 1000 calls cost %v, want %v", k.kind, cost, 1000*params.NativeSyscallCost)
			}
		}
	}
}

func TestRuntimeLibOSInflatesFootprint(t *testing.T) {
	graphene, scone := launchContainer(t, RuntimeGraphene).Enclave(), launchContainer(t, RuntimeSconeHW).Enclave()
	if got := graphene.ResidentBytes() - scone.ResidentBytes(); got < libOSSize {
		t.Fatalf("Graphene holds %d bytes more than SCONE, want at least its libOS's %d", got, libOSSize)
	}
}

// TestRuntimeDeviceLibc: a device computes at its libc's factor, musl
// a little slower than glibc, and hardware mode at its compute factor.
func TestRuntimeDeviceLibc(t *testing.T) {
	params := sgx.DefaultParams()
	plain := params.ComputeTime(1e9, 1)
	for _, k := range kinds {
		c := launchContainer(t, k.kind)
		dev := c.Device(1)
		start := dev.Clock().Now()
		dev.Compute(1e9)
		want := k.libc
		if k.kind == RuntimeSconeHW || k.kind == RuntimeGraphene {
			want *= params.HWComputeFactor
		}
		if got := float64(dev.Clock().Now()-start) / float64(plain); math.Abs(got-want) > 1e-6 {
			t.Errorf("%v: compute at %.4f× glibc, want %.4f×", k.kind, got, want)
		}
	}
}

func TestRuntimeDeviceThreads(t *testing.T) {
	for _, k := range kinds {
		if got, want := launchContainer(t, k.kind).Device(0).Threads(), sgx.DefaultParams().PhysicalCores; got != want {
			t.Errorf("%v: default threads %d, want the %d physical cores", k.kind, got, want)
		}
		three := launchContainer(t, k.kind, func(cfg *Config) { cfg.Threads = 3 })
		if got := three.Device(0).Threads(); got != 3 {
			t.Errorf("%v: default threads %d, want the container's 3", k.kind, got)
		}
		if got := three.Device(2).Threads(); got != 2 {
			t.Errorf("%v: Device(2) has %d threads", k.kind, got)
		}
	}
}

// TestRuntimeFSRoundTrip: a file written through each kind reads back,
// and the calls were charged as that kind charges them.
func TestRuntimeFSRoundTrip(t *testing.T) {
	for _, k := range kinds {
		c := launchContainer(t, k.kind)
		before, start := c.EnclaveStats(), c.Clock().Now()
		if err := fsapi.WriteFile(c.FS(), "data/input.bin", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if got, err := fsapi.ReadFile(c.FS(), "data/input.bin"); err != nil || string(got) != "payload" {
			t.Fatalf("%v: read %q, %v", k.kind, got, err)
		}
		after := c.EnclaveStats()
		switch {
		case c.Clock().Now() == start:
			t.Errorf("%v: file I/O charged nothing", k.kind)
		case k.kind == RuntimeGraphene && after.Transitions == before.Transitions:
			t.Errorf("%v: file I/O did not transition", k.kind)
		case k.kind.Shielded() && k.kind != RuntimeGraphene && after.AsyncSyscalls == before.AsyncSyscalls:
			t.Errorf("%v: file I/O made no async calls", k.kind)
		}
	}
}

func TestRuntimeFSConformance(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { fstest.Conformance(t, launchContainer(t, k.kind).FS()) })
	}
}

// TestRuntimeEchoes listens, dials and echoes through each kind. An
// enclave's sockets charge their calls; a native one charges one kernel
// crossing at Listen and one at Dial, and nothing per byte.
func TestRuntimeEchoes(t *testing.T) {
	params := sgx.DefaultParams()
	msg := bytes.Repeat([]byte{0x5a}, 64<<10)
	for _, k := range kinds {
		c := launchContainer(t, k.kind)
		clock := c.Clock()
		before, start := c.EnclaveStats(), clock.Now()
		ln, err := c.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listened := clock.Now()
		errc := make(chan error, 1)
		go func() { errc <- serveEcho(ln, len(msg)) }()
		conn, err := c.Dial("tcp", ln.Addr().String(), "")
		if err != nil {
			t.Fatal(err)
		}
		dialed := clock.Now()
		if err := roundTrip(conn, msg); err != nil {
			t.Fatalf("%v: %v", k.kind, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%v: %v", k.kind, err)
		}
		conn.Close()
		ln.Close()
		after := c.EnclaveStats()
		switch {
		case !k.kind.Shielded():
			if got := [3]time.Duration{listened - start, dialed - listened, clock.Now() - dialed}; got != [3]time.Duration{params.NativeSyscallCost, params.NativeSyscallCost, 0} {
				t.Errorf("%v: Listen, Dial and a %d B echo charged %v, want one NativeSyscallCost each and nothing", k.kind, len(msg), got)
			}
		case k.kind == RuntimeGraphene && after.Transitions <= before.Transitions:
			t.Errorf("%v: network I/O did not transition the enclave", k.kind)
		case k.kind != RuntimeGraphene && after.AsyncSyscalls <= before.AsyncSyscalls:
			t.Errorf("%v: network I/O made no async calls", k.kind)
		}
	}
}

// serveEcho accepts one connection on ln and echoes n bytes back.
func serveEcho(ln net.Listener, n int) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return err
	}
	_, err = conn.Write(buf)
	return err
}

// roundTrip writes msg to conn and checks that it comes back.
func roundTrip(conn net.Conn, msg []byte) error {
	if _, err := conn.Write(msg); err != nil {
		return err
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return err
	}
	if !bytes.Equal(buf, msg) {
		return fmt.Errorf("echo mismatch: %q", buf)
	}
	return nil
}
