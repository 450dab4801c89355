// Package graphene holds the tests of the Graphene-SGX kind of
// internal/core's runtime, RuntimeGraphene, run through core.Launch.
// The runtime itself, and why Graphene is priced as it is, is in core.
package graphene

import (
	"io"
	"testing"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
)

// libOSSize is the in-enclave image of Graphene's library OS, which
// launch allocates as the "graphene-libos" segment.
const libOSSize = 48 << 20

func launchTest(t *testing.T) *core.Container {
	t.Helper()
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Launch(core.Config{
		Kind:     core.RuntimeGraphene,
		Platform: p,
		Image:    sgx.SyntheticImage("app", 2<<20, 1<<20),
		HostFS:   fsapi.NewMem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLaunchValidation(t *testing.T) {
	if _, err := core.Launch(core.Config{Kind: core.RuntimeGraphene}); err == nil {
		t.Fatal("missing platform accepted")
	}
}

func TestLibOSInflatesFootprint(t *testing.T) {
	c := launchTest(t)
	if got := c.Enclave().ResidentBytes(); got < libOSSize {
		t.Fatalf("resident = %d, want >= libOS size %d", got, libOSSize)
	}
}

// TestSyscallChargesTransition makes one system call, a Stat through
// the container's file system.
func TestSyscallChargesTransition(t *testing.T) {
	c := launchTest(t)
	base := c.EnclaveStats()
	c.FS().Stat("absent") // one system call, found or not
	after := c.EnclaveStats()
	if got := after.Transitions - base.Transitions; got != 1 {
		t.Fatalf("transitions per syscall = %d, want 1 (synchronous design)", got)
	}
	if got := after.AsyncSyscalls - base.AsyncSyscalls; got != 0 {
		t.Fatalf("async syscalls = %d, want 0", got)
	}
}

func TestFSRoundTrip(t *testing.T) {
	c := launchTest(t)
	fsys := c.FS()
	if err := fsapi.WriteFile(fsys, "model.tflite", []byte("weights")); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(fsys, "model.tflite")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "weights" {
		t.Fatalf("got %q", got)
	}
	if c.EnclaveStats().Transitions == 0 {
		t.Fatal("file I/O did not transition")
	}
}

func TestSyscallsCostMoreThanScone(t *testing.T) {
	// The asynchronous interface is SCONE's headline optimization; per
	// equal syscall count, Graphene must charge more virtual time.
	c := launchTest(t)
	start := c.Clock().Now()
	for i := 0; i < 1000; i++ {
		c.FS().Stat("absent") // one system call each
	}
	grapheneCost := c.Clock().Now() - start

	params := sgx.DefaultParams()
	sconeCost := 1000 * params.AsyncSyscallCost
	if grapheneCost <= sconeCost {
		t.Fatalf("graphene syscall cost (%v) should exceed scone async cost (%v)", grapheneCost, sconeCost)
	}
}

func TestFSConformance(t *testing.T) {
	fstest.Conformance(t, launchTest(t).FS())
}

func TestNameAndDevice(t *testing.T) {
	c := launchTest(t)
	if c.Name() != "graphene" {
		t.Fatalf("name = %q", c.Name())
	}
	dev := c.Device(2)
	if dev.Threads() != 2 {
		t.Fatalf("threads = %d", dev.Threads())
	}
	before := dev.Clock().Now()
	dev.Compute(1 << 20)
	if dev.Clock().Now() == before {
		t.Fatal("device charged nothing")
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	c := launchTest(t)
	ln, err := c.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(buf)
		done <- err
	}()

	base := c.EnclaveStats()
	conn, err := c.Dial("tcp", ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("echo %q", buf)
	}
	// Synchronous design: network I/O transitions the enclave.
	if after := c.EnclaveStats(); after.Transitions <= base.Transitions {
		t.Fatal("network I/O did not transition the enclave")
	}
}
