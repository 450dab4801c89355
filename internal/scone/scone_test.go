// Package scone holds the tests of the SCONE kinds of internal/core's
// runtime, RuntimeSconeHW and RuntimeSconeSIM, run through core.Launch.
// The runtime itself, and why SCONE is priced as it is, is in core.
package scone

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
)

// launchTest launches a container of kind on a fresh platform with a
// synthetic image and an in-memory host; threads 0 is the default.
func launchTest(t *testing.T, kind core.RuntimeKind, threads int) *core.Container {
	t.Helper()
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Launch(core.Config{
		Kind:     kind,
		Platform: p,
		Image:    sgx.SyntheticImage("app", 2<<20, 1<<20),
		HostFS:   fsapi.NewMem(),
		Threads:  threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLaunchValidation(t *testing.T) {
	if _, err := core.Launch(core.Config{Kind: core.RuntimeSconeHW}); err == nil {
		t.Fatal("missing platform accepted")
	}
	p, _ := sgx.NewPlatform("n", sgx.DefaultParams())
	if _, err := core.Launch(core.Config{Kind: core.RuntimeSconeHW, Platform: p, Image: sgx.Image{Name: "a"}}); err == nil {
		t.Fatal("missing host FS accepted")
	}
}

func TestRuntimeNames(t *testing.T) {
	if got := launchTest(t, core.RuntimeSconeHW, 0).Name(); got != "scone-hw" {
		t.Fatalf("Name = %q", got)
	}
	if got := launchTest(t, core.RuntimeSconeSIM, 0).Name(); got != "scone-sim" {
		t.Fatalf("Name = %q", got)
	}
}

// TestSyscallUsesAsyncQueueNotTransitions makes one system call, a
// Stat through the container's file system.
func TestSyscallUsesAsyncQueueNotTransitions(t *testing.T) {
	c := launchTest(t, core.RuntimeSconeHW, 0)
	base := c.EnclaveStats()
	c.FS().Stat("absent") // one system call, found or not
	after := c.EnclaveStats()
	if got := after.AsyncSyscalls - base.AsyncSyscalls; got != 1 {
		t.Fatalf("async syscalls = %d, want 1", got)
	}
	if got := after.Transitions - base.Transitions; got != 0 {
		t.Fatalf("transitions = %d, want 0 (exit-less design)", got)
	}
}

func TestFSRoundTripChargesSyscalls(t *testing.T) {
	c := launchTest(t, core.RuntimeSconeHW, 0)
	fsys := c.FS()
	if err := fsapi.WriteFile(fsys, "data/input.bin", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(fsys, "data/input.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
	if c.EnclaveStats().AsyncSyscalls == 0 {
		t.Fatal("file I/O charged no syscalls")
	}
}

// TestDialListenThroughRuntime echoes through a runtime, and writes a
// file through it, while six of its calls sit parked: four reads on
// idle connections and two 256 MiB writes to peers that stopped
// reading. A runtime call runs on its caller's goroutine, so a parked
// one holds that goroutine and nothing else; a call that waited for a
// shared service thread would let two hostile peers stop every other
// call of the container.
func TestDialListenThroughRuntime(t *testing.T) {
	c := launchTest(t, core.RuntimeSconeHW, 0)
	ln, err := c.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	defer func() { <-served }()
	defer ln.Close()

	const idle, stalled = 4, 2
	msg := []byte("gradients")
	// Far more than the loopback socket buffers hold, so a Write of it
	// parks for good once its peer stops reading. Both writers share it.
	flood := make([]byte, 256<<20)
	errc := make(chan error, 1)
	go func() {
		defer close(served)
		var writers sync.WaitGroup
		defer writers.Wait() // after the Closes below end the writes
		// The idle connections are accepted and held open unread, the
		// stalled ones are flooded, and the one after them is echoed.
		for i := 0; i < idle+stalled; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			if i >= idle {
				writers.Add(1)
				go func() {
					defer writers.Done()
					conn.Write(flood) // parks until a Close
				}()
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, buf); err != nil {
			errc <- err
			return
		}
		_, err = conn.Write(buf)
		errc <- err
	}()

	// Each idle read starts before the next dial. Whether the kernel has
	// parked it yet is not visible from here (sysio's
	// TestParkedReadChargesOnCompletion checks that with a scripted
	// conn); parked.Wait and the dials after it give all four every
	// chance to.
	var parked, released sync.WaitGroup
	var peers []net.Conn
	defer func() {
		// Closing the dialing side ends the reads and the writes
		// whatever state the accepting goroutine is in.
		for _, conn := range peers {
			conn.Close()
		}
		released.Wait()
	}()
	for i := 0; i < idle; i++ {
		conn, err := c.Dial("tcp", ln.Addr().String(), "")
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, conn)
		parked.Add(1)
		released.Add(1)
		go func() {
			defer released.Done()
			parked.Done()
			conn.Read(make([]byte, 1)) // parks until the Close above
		}()
	}
	parked.Wait()
	// The stalled peers are raw host sockets. Each reads one byte, which
	// shows its flood has reached the kernel, and nothing more.
	for i := 0; i < stalled; i++ {
		peer, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, peer)
		if _, err := io.ReadFull(peer, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
	}

	echoed, wrote := make(chan error, 1), make(chan error, 1)
	go func() { echoed <- echo(c, ln.Addr().String(), msg) }()
	go func() { wrote <- fsapi.WriteFile(c.FS(), "data/after-stall.bin", msg) }()
	deadline := time.After(3 * time.Second)
	for _, call := range []struct {
		name string
		done chan error
	}{{"echo", echoed}, {"file write", wrote}} {
		select {
		case err := <-call.done:
			if err != nil {
				t.Fatalf("%s: %v", call.name, err)
			}
		case <-deadline:
			t.Fatalf("%s still blocked after 3 s behind %d writes to peers that stopped reading", call.name, stalled)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// echo dials addr through c and checks that msg comes back.
func echo(c *core.Container, addr string, msg []byte) error {
	conn, err := c.Dial("tcp", addr, "")
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(msg); err != nil {
		return err
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return err
	}
	if string(buf) != string(msg) {
		return fmt.Errorf("echo mismatch: %q", buf)
	}
	return nil
}

func TestDeviceAppliesMuslFactor(t *testing.T) {
	dev := launchTest(t, core.RuntimeSconeSIM, 0).Device(1)
	before := dev.Clock().Now()
	dev.Compute(1e9)
	elapsed := dev.Clock().Now() - before
	params := sgx.DefaultParams()
	plain := params.ComputeTime(1e9, 1)
	if elapsed <= plain {
		t.Fatalf("musl-factored compute (%v) should exceed plain (%v)", elapsed, plain)
	}
}

// TestDeviceDefaultsToEnclaveThreads: SCONE's scheduler runs one
// enclave execution context per container thread, and the default
// device has that many threads.
func TestDeviceDefaultsToEnclaveThreads(t *testing.T) {
	c := launchTest(t, core.RuntimeSconeHW, 3)
	if got := c.Device(0).Threads(); got != 3 {
		t.Fatalf("default threads = %d, want the 3 enclave threads", got)
	}
	if got := c.EnclaveStats().Transitions; got != 3 {
		t.Fatalf("launch made %d transitions, want one per execution context", got)
	}
}

func TestFSConformance(t *testing.T) {
	fstest.Conformance(t, launchTest(t, core.RuntimeSconeHW, 0).FS())
}
