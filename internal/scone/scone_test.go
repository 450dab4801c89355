package scone

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
)

func launchTestRuntime(t *testing.T, mode sgx.Mode) *Runtime {
	t.Helper()
	return launchTestConfig(t, Config{Mode: mode})
}

// launchTestConfig launches cfg on a fresh platform with a synthetic
// image and an in-memory host.
func launchTestConfig(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = p
	cfg.Image = sgx.SyntheticImage("app", 2<<20, 1<<20)
	cfg.HostFS = fsapi.NewMem()
	rt, err := Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(Config{}); err == nil {
		t.Fatal("missing platform accepted")
	}
	p, _ := sgx.NewPlatform("n", sgx.DefaultParams())
	if _, err := Launch(Config{Platform: p, Mode: sgx.ModeHW, Image: sgx.Image{Name: "a"}}); err == nil {
		t.Fatal("missing host FS accepted")
	}
}

func TestRuntimeNames(t *testing.T) {
	if got := launchTestRuntime(t, sgx.ModeHW).Name(); got != "scone-hw" {
		t.Fatalf("Name = %q", got)
	}
	if got := launchTestRuntime(t, sgx.ModeSIM).Name(); got != "scone-sim" {
		t.Fatalf("Name = %q", got)
	}
}

func TestSyscallUsesAsyncQueueNotTransitions(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	base := rt.Enclave().Stats()
	rt.Syscall()
	after := rt.Enclave().Stats()
	if got := after.AsyncSyscalls - base.AsyncSyscalls; got != 1 {
		t.Fatalf("async syscalls = %d, want 1", got)
	}
	if got := after.Transitions - base.Transitions; got != 0 {
		t.Fatalf("transitions = %d, want 0 (exit-less design)", got)
	}
}

func TestFSRoundTripChargesSyscalls(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	fsys := rt.FS()
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
	if rt.Enclave().Stats().AsyncSyscalls == 0 {
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
	rt := launchTestRuntime(t, sgx.ModeHW)
	ln, err := rt.Listen("tcp", "127.0.0.1:0")
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
		conn, err := rt.Dial("tcp", ln.Addr().String())
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
	go func() { echoed <- echo(rt, ln.Addr().String(), msg) }()
	go func() { wrote <- fsapi.WriteFile(rt.FS(), "data/after-stall.bin", msg) }()
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

// echo dials addr through rt and checks that msg comes back.
func echo(rt *Runtime, addr string, msg []byte) error {
	conn, err := rt.Dial("tcp", addr)
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
	rt := launchTestRuntime(t, sgx.ModeSIM)
	dev := rt.Device(1)
	before := dev.Clock().Now()
	dev.Compute(1e9)
	elapsed := dev.Clock().Now() - before
	params := sgx.DefaultParams()
	plain := params.ComputeTime(1e9, 1)
	if elapsed <= plain {
		t.Fatalf("musl-factored compute (%v) should exceed plain (%v)", elapsed, plain)
	}
}

func TestDeviceDefaultsToEnclaveThreads(t *testing.T) {
	rt := launchTestConfig(t, Config{Mode: sgx.ModeHW, EnclaveThreads: 3})
	if got := rt.Device(0).Threads(); got != 3 {
		t.Fatalf("default threads = %d, want the 3 enclave threads", got)
	}
}

func TestFSConformance(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	fstest.Conformance(t, rt.FS())
}
