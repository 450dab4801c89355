package ias

import (
	"bytes"
	"crypto/ecdsa"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/sgx"
)

func newIAS(t testing.TB) (*Server, *sgx.Enclave) {
	t.Helper()
	serverPlat, err := sgx.NewPlatform("key-server", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	workerPlat, err := sgx.NewPlatform("worker-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := workerPlat.CreateEnclave(sgx.SyntheticImage("worker", 2<<20, 1<<20), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(ServerConfig{
		Platform: serverPlat,
		TrustedPlatforms: map[string]*ecdsa.PublicKey{
			workerPlat.Name(): workerPlat.AttestationKey(),
		},
		Secrets: map[string][]byte{"model-key": []byte("k")},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return server, enclave
}

func TestTraditionalFlowTiming(t *testing.T) {
	server, enclave := newIAS(t)
	client := &Client{Enclave: enclave, Addr: server.Addr()}
	secrets, timing, err := client.Attest()
	if err != nil {
		t.Fatal(err)
	}
	if string(secrets["model-key"]) != "k" {
		t.Fatal("keys not released")
	}
	// The defining property of the IAS baseline: confirmation takes a WAN
	// round trip plus Intel-side verification, i.e. hundreds of ms.
	if timing.WaitConfirmation < 200*time.Millisecond {
		t.Fatalf("WaitConfirmation = %v, want WAN-scale latency", timing.WaitConfirmation)
	}
	if timing.Total() < 250*time.Millisecond {
		t.Fatalf("Total = %v, want paper-scale (~325 ms)", timing.Total())
	}
}

func TestIASRejectsDCAPQuotes(t *testing.T) {
	server, enclave := newIAS(t)
	// Bypass the Client to send a DCAP quote directly.
	q, err := enclave.GetQuote(nil, sgx.QEVendorDCAP)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.verify(q); err == nil {
		t.Fatal("IAS accepted a DCAP quote")
	}
}

func TestIASRejectsUnknownPlatform(t *testing.T) {
	server, _ := newIAS(t)
	rogue, err := sgx.NewPlatform("rogue", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := rogue.CreateEnclave(sgx.SyntheticImage("w", 1<<20, 0), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	q, err := enclave.GetQuote(nil, sgx.QEVendorEPID)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.verify(q); err == nil {
		t.Fatal("IAS accepted quote from unknown platform")
	}
}

// TestCloseWithIdlePeer: a TCP peer that connects and never sends its
// quote — its handler parked in the request read — must not hang Close.
func TestCloseWithIdlePeer(t *testing.T) {
	server, enclave := newIAS(t)
	peer, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// Connections are accepted in order, so once a later client has
	// been answered the idle peer's handler is running.
	if _, _, err := (&Client{Enclave: enclave, Addr: server.Addr()}).Attest(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- server.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while an idle peer held its connection open")
	}
}

// TestOversizedRequestIsCutOff pins the decoder's per-connection cap at
// the key server: a peer streaming an endless JSON string is
// disconnected at cas.MaxConnBytes — a server that buffered without
// limit would take it all and wait for the closing quote — and the
// accept loop serves the next attested client.
func TestOversizedRequestIsCutOff(t *testing.T) {
	server, enclave := newIAS(t)
	peer, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	flood := append([]byte(`{"sender_vtime":0,"junk":"`), bytes.Repeat([]byte{'a'}, 2*cas.MaxConnBytes)...)
	peer.Write(flood) // fails or not with when the server hangs up
	n, err := peer.Read(make([]byte, 1))
	var timeout net.Error
	switch {
	case err == nil:
		t.Fatalf("the server answered an unterminated request with %d bytes", n)
	case errors.As(err, &timeout) && timeout.Timeout():
		t.Fatalf("the server was still reading after %d bytes", len(flood))
	}

	if _, _, err := (&Client{Enclave: enclave, Addr: server.Addr()}).Attest(); err != nil {
		t.Fatal(err)
	}
}
