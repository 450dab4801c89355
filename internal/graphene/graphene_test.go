package graphene

import (
	"io"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
)

func launchTest(t *testing.T) *Runtime {
	t.Helper()
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Launch(Config{
		Platform: p,
		Image:    sgx.SyntheticImage("app", 2<<20, 1<<20),
		HostFS:   fsapi.NewMem(),
	})
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
}

func TestLibOSInflatesFootprint(t *testing.T) {
	rt := launchTest(t)
	if got := rt.Enclave().ResidentBytes(); got < DefaultLibOSSize {
		t.Fatalf("resident = %d, want >= libOS size %d", got, DefaultLibOSSize)
	}
}

func TestSyscallChargesTransition(t *testing.T) {
	rt := launchTest(t)
	base := rt.Enclave().Stats()
	rt.Syscall()
	after := rt.Enclave().Stats()
	if got := after.Transitions - base.Transitions; got != 1 {
		t.Fatalf("transitions per syscall = %d, want 1 (synchronous design)", got)
	}
	if got := after.AsyncSyscalls - base.AsyncSyscalls; got != 0 {
		t.Fatalf("async syscalls = %d, want 0", got)
	}
}

func TestFSRoundTrip(t *testing.T) {
	rt := launchTest(t)
	fsys := rt.FS()
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
	if rt.Enclave().Stats().Transitions == 0 {
		t.Fatal("file I/O did not transition")
	}
}

func TestSyscallsCostMoreThanScone(t *testing.T) {
	// The asynchronous interface is SCONE's headline optimization; per
	// equal syscall count, Graphene must charge more virtual time.
	rt := launchTest(t)
	start := rt.Enclave().Clock().Now()
	for i := 0; i < 1000; i++ {
		rt.Syscall()
	}
	grapheneCost := rt.Enclave().Clock().Now() - start

	params := sgx.DefaultParams()
	sconeCost := 1000 * params.AsyncSyscallCost
	if grapheneCost <= sconeCost {
		t.Fatalf("graphene syscall cost (%v) should exceed scone async cost (%v)", grapheneCost, sconeCost)
	}
}

func TestFSConformance(t *testing.T) {
	rt := launchTest(t)
	fstest.Conformance(t, rt.FS())
}

func TestNameAndDevice(t *testing.T) {
	rt := launchTest(t)
	if rt.Name() != "graphene" {
		t.Fatalf("name = %q", rt.Name())
	}
	dev := rt.Device(2)
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
	rt := launchTest(t)
	ln, err := rt.Listen("tcp", "127.0.0.1:0")
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

	base := rt.Enclave().Stats()
	conn, err := rt.Dial("tcp", ln.Addr().String())
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
	if after := rt.Enclave().Stats(); after.Transitions <= base.Transitions {
		t.Fatal("network I/O did not transition the enclave")
	}
}
