// Package nativert holds the tests of the native kinds of
// internal/core's runtime, RuntimeNativeGlibc and RuntimeNativeMusl, run
// through core.Launch. The runtime itself is in core, and its bare
// sockets in internal/sysio.
package nativert

import (
	"io"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
)

// launchTest launches a native container of kind on a fresh platform,
// whose meter it borrows, with an in-memory host.
func launchTest(t *testing.T, kind core.RuntimeKind) *core.Container {
	t.Helper()
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Launch(core.Config{Kind: kind, Platform: p, HostFS: fsapi.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLaunchValidation(t *testing.T) {
	if _, err := core.Launch(core.Config{Kind: core.RuntimeNativeGlibc, HostFS: fsapi.NewMem()}); err == nil {
		t.Fatal("missing platform accepted")
	}
	p, _ := sgx.NewPlatform("n", sgx.DefaultParams())
	if _, err := core.Launch(core.Config{Kind: core.RuntimeNativeGlibc, Platform: p}); err == nil {
		t.Fatal("missing host FS accepted")
	}
}

func TestNames(t *testing.T) {
	for kind, want := range map[core.RuntimeKind]string{core.RuntimeNativeGlibc: "native-glibc", core.RuntimeNativeMusl: "native-musl"} {
		c := launchTest(t, kind)
		if got := c.Name(); got != want {
			t.Fatalf("Name = %q, want %q", got, want)
		}
		if c.Enclave() != nil {
			t.Fatal("native runtime claims an enclave")
		}
	}
}

func TestMuslSlightlySlowerThanGlibc(t *testing.T) {
	run := func(kind core.RuntimeKind) time.Duration {
		dev := launchTest(t, kind).Device(1)
		start := dev.Clock().Now()
		dev.Compute(1e9)
		return dev.Clock().Now() - start
	}
	glibc := run(core.RuntimeNativeGlibc)
	musl := run(core.RuntimeNativeMusl)
	if musl <= glibc {
		t.Fatalf("musl (%v) should be slightly slower than glibc (%v)", musl, glibc)
	}
	ratio := float64(musl) / float64(glibc)
	if ratio > 1.10 {
		t.Fatalf("musl/glibc ratio %.3f too large; paper reports near-parity", ratio)
	}
}

func TestFSRoundTripChargesSyscalls(t *testing.T) {
	c := launchTest(t, core.RuntimeNativeGlibc)
	start := c.Clock().Now()
	if err := fsapi.WriteFile(c.FS(), "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(c.FS(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("got %q", got)
	}
	if c.Clock().Now() == start {
		t.Fatal("native syscalls charged nothing")
	}
}

func TestFSConformance(t *testing.T) {
	fstest.Conformance(t, launchTest(t, core.RuntimeNativeGlibc).FS())
}

func TestDeviceDefaultsToPhysicalCores(t *testing.T) {
	params := sgx.DefaultParams()
	if got := launchTest(t, core.RuntimeNativeGlibc).Device(0).Threads(); got != params.PhysicalCores {
		t.Fatalf("default threads = %d, want %d", got, params.PhysicalCores)
	}
}

func TestNetworkRoundTripChargesTime(t *testing.T) {
	c := launchTest(t, core.RuntimeNativeGlibc)
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
	before := c.Clock().Now()
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
	if c.Clock().Now() == before {
		t.Fatal("network round trip charged no virtual time")
	}
}
