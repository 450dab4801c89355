package scone

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

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
	ran := false
	rt.Syscall(func() { ran = true })
	if !ran {
		t.Fatal("syscall body did not run")
	}
	after := rt.Enclave().Stats()
	if got := after.AsyncSyscalls - base.AsyncSyscalls; got != 1 {
		t.Fatalf("async syscalls = %d, want 1", got)
	}
	if got := after.Transitions - base.Transitions; got != 0 {
		t.Fatalf("transitions = %d, want 0 (exit-less design)", got)
	}
}

func TestFSRoundTripThroughQueue(t *testing.T) {
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
		t.Fatal("file I/O bypassed the syscall queue")
	}
}

func TestSyscallQueueConcurrent(t *testing.T) {
	q := NewSyscallQueue(4)
	defer q.Close()
	var counter atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Do(func() { counter.Add(1) })
		}()
	}
	wg.Wait()
	if counter.Load() != 100 {
		t.Fatalf("counter = %d, want 100", counter.Load())
	}
}

func TestSyscallQueueCloseIdempotentAndInlineAfterClose(t *testing.T) {
	q := NewSyscallQueue(1)
	q.Close()
	q.Close() // must not panic
	ran := false
	q.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do after Close did not run inline")
	}
}

func TestSchedulerLimitsConcurrency(t *testing.T) {
	const contexts = 3
	s := NewScheduler(contexts)
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 20; i++ {
		wg.Add(1)
		s.Go(func() {
			defer wg.Done()
			<-release
		})
	}
	close(release)
	wg.Wait()
	s.Wait()
	if got := s.MaxRunning(); got > contexts {
		t.Fatalf("MaxRunning = %d, want <= %d", got, contexts)
	}
}

func TestSchedulerBlockingReleasesContext(t *testing.T) {
	s := NewScheduler(1)
	entered := make(chan struct{})
	proceed := make(chan struct{})
	other := make(chan struct{})

	s.Go(func() {
		s.Blocking(func() {
			close(entered)
			<-proceed
		})
	})
	<-entered
	// With the only context released by Blocking, another thread must be
	// able to run to completion.
	s.Go(func() { close(other) })
	<-other
	close(proceed)
	s.Wait()
	if s.Switches() == 0 {
		t.Fatal("no context switches recorded")
	}
}

func TestSchedulerYield(t *testing.T) {
	s := NewScheduler(2)
	done := make(chan struct{})
	s.Go(func() {
		s.Yield()
		close(done)
	})
	<-done
	s.Wait()
}

// TestDialListenThroughRuntime echoes through a runtime whose ring has
// one slot while four reads of the same runtime sit parked on idle
// connections: a parked wait that held a ring slot would leave none
// for the echo's writes (the PR 1 deadlock).
func TestDialListenThroughRuntime(t *testing.T) {
	rt := launchTestConfig(t, Config{Mode: sgx.ModeHW, SyscallWorkers: 1})
	ln, err := rt.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const idle = 4
	msg := []byte("gradients")
	errc := make(chan error, 1)
	go func() {
		// The idle connections are accepted and held open unread; the
		// one after them is echoed.
		for i := 0; i < idle; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
		}
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, len(msg))
		if _, err := conn.Read(buf); err != nil {
			errc <- err
			return
		}
		_, err = conn.Write(buf)
		errc <- err
	}()

	// Each idle read starts before the next dial. Whether the kernel has
	// parked it yet is not visible from here (sysio's
	// TestParkedReadChargesOnCompletion checks that with a scripted
	// conn); what this needs is weaker: were reads ring calls, the first
	// one to reach the ring before the echo's last call would hold its
	// one slot for good, and parked.Wait plus four more dials give all
	// four every chance to.
	var parked, released sync.WaitGroup
	var idleConns []net.Conn
	defer func() {
		// Closing the dialing side ends the reads whatever state the
		// accepting goroutine is in.
		for _, conn := range idleConns {
			conn.Close()
		}
		released.Wait()
	}()
	for i := 0; i < idle; i++ {
		conn, err := rt.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		idleConns = append(idleConns, conn)
		parked.Add(1)
		released.Add(1)
		go func() {
			defer released.Done()
			parked.Done()
			conn.Read(make([]byte, 1)) // parks until the Close above
		}()
	}
	parked.Wait()

	conn, err := rt.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(msg) {
		t.Fatalf("echo mismatch: %q", buf)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
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

func TestFSConformance(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	fstest.Conformance(t, rt.FS())
}

func TestSchedulerAccessors(t *testing.T) {
	rt := launchTestRuntime(t, sgx.ModeHW)
	sched := rt.Scheduler()
	if sched == nil {
		t.Fatal("no scheduler")
	}
	if sched.Contexts() <= 0 {
		t.Fatalf("contexts = %d", sched.Contexts())
	}
}
