package nativert

import (
	"io"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(Config{}); err == nil {
		t.Fatal("missing meter accepted")
	}
	if _, err := Launch(Config{Meter: sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())}); err == nil {
		t.Fatal("missing host FS accepted")
	}
}

func TestNames(t *testing.T) {
	var clock vtime.Clock
	for libc, want := range map[Libc]string{Glibc: "native-glibc", Musl: "native-musl"} {
		rt, err := Launch(Config{Meter: sgx.NewMeter(&clock, sgx.DefaultParams()), Libc: libc, HostFS: fsapi.NewMem()})
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.Name(); got != want {
			t.Fatalf("Name = %q, want %q", got, want)
		}
		if rt.Enclave() != nil {
			t.Fatal("native runtime claims an enclave")
		}
	}
}

func TestMuslSlightlySlowerThanGlibc(t *testing.T) {
	params := sgx.DefaultParams()
	run := func(libc Libc) *vtime.Clock {
		clock := &vtime.Clock{}
		rt, err := Launch(Config{Meter: sgx.NewMeter(clock, params), Libc: libc, HostFS: fsapi.NewMem()})
		if err != nil {
			t.Fatal(err)
		}
		rt.Device(1).Compute(1e9)
		return clock
	}
	glibc := run(Glibc)
	musl := run(Musl)
	if musl.Now() <= glibc.Now() {
		t.Fatalf("musl (%v) should be slightly slower than glibc (%v)", musl.Now(), glibc.Now())
	}
	ratio := float64(musl.Now()) / float64(glibc.Now())
	if ratio > 1.10 {
		t.Fatalf("musl/glibc ratio %.3f too large; paper reports near-parity", ratio)
	}
}

func TestFSRoundTripChargesSyscalls(t *testing.T) {
	var clock vtime.Clock
	rt, err := Launch(Config{Meter: sgx.NewMeter(&clock, sgx.DefaultParams()), HostFS: fsapi.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	if err := fsapi.WriteFile(rt.FS(), "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(rt.FS(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("got %q", got)
	}
	if clock.Now() == 0 {
		t.Fatal("native syscalls charged nothing")
	}
}

func TestFSConformance(t *testing.T) {
	var clock vtime.Clock
	rt, err := Launch(Config{Meter: sgx.NewMeter(&clock, sgx.DefaultParams()), HostFS: fsapi.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fstest.Conformance(t, rt.FS())
}

func TestDeviceDefaultsToPhysicalCores(t *testing.T) {
	var clock vtime.Clock
	params := sgx.DefaultParams()
	rt, err := Launch(Config{Meter: sgx.NewMeter(&clock, params), HostFS: fsapi.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := rt.Device(0).Threads(); got != params.PhysicalCores {
		t.Fatalf("default threads = %d, want %d", got, params.PhysicalCores)
	}
}

func TestNetworkRoundTripChargesTime(t *testing.T) {
	var clock vtime.Clock
	rt, err := Launch(Config{Meter: sgx.NewMeter(&clock, sgx.DefaultParams()), HostFS: fsapi.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
	before := clock.Now()
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
	if clock.Now() == before {
		t.Fatal("network round trip charged no virtual time")
	}
}
