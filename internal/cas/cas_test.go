package cas

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/tls"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/sgx"
)

// testCluster is a CAS plus a worker platform.
type testCluster struct {
	server        *Server
	casPlatform   *sgx.Platform
	workerPlat    *sgx.Platform
	workerEnclave *sgx.Enclave
	workerImage   sgx.Image
}

func newTestCluster(t testing.TB) *testCluster {
	t.Helper()
	casPlat, err := sgx.NewPlatform("cas-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	workerPlat, err := sgx.NewPlatform("worker-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(ServerConfig{
		Platform: casPlat,
		StoreFS:  fsapi.NewMem(),
		TrustedPlatforms: map[string]*ecdsa.PublicKey{
			workerPlat.Name(): workerPlat.AttestationKey(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })

	img := sgx.SyntheticImage("securetf-worker", 2<<20, 16<<20)
	enclave, err := workerPlat.CreateEnclave(img, sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{
		server:        server,
		casPlatform:   casPlat,
		workerPlat:    workerPlat,
		workerEnclave: enclave,
		workerImage:   img,
	}
}

func (tc *testCluster) newClient(t *testing.T) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Enclave:        tc.workerEnclave,
		Addr:           tc.server.Addr(),
		CASMeasurement: tc.server.Measurement(),
		PlatformKeys: map[string]*ecdsa.PublicKey{
			tc.casPlatform.Name(): tc.casPlatform.AttestationKey(),
			tc.workerPlat.Name():  tc.workerPlat.AttestationKey(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return c
}

func (tc *testCluster) defaultSession() *Session {
	return &Session{
		Name:         "training",
		OwnerToken:   "owner-token-1",
		Measurements: []string{tc.workerEnclave.Measurement().Hex()},
		Secrets:      map[string][]byte{"code-key": []byte("0123456789abcdef")},
		Volumes:      map[string][]byte{"data": make([]byte, 32)},
		Services:     []string{"worker-0", "localhost", "127.0.0.1"},
	}
}

func TestBootstrapPinsCAS(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.newClient(t)
	if c.caPool == nil {
		t.Fatal("bootstrap did not pin the CA")
	}
}

func TestBootstrapRejectsWrongMeasurement(t *testing.T) {
	tc := newTestCluster(t)
	var wrong sgx.Measurement
	wrong[0] = 0xff
	c, err := NewClient(ClientConfig{
		Enclave:        tc.workerEnclave,
		Addr:           tc.server.Addr(),
		CASMeasurement: wrong,
		PlatformKeys: map[string]*ecdsa.PublicKey{
			tc.casPlatform.Name(): tc.casPlatform.AttestationKey(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(); err == nil || !strings.Contains(err.Error(), "measurement") {
		t.Fatalf("bootstrap with wrong pinned measurement: %v", err)
	}
}

func TestBootstrapRejectsUnknownPlatform(t *testing.T) {
	tc := newTestCluster(t)
	other, err := sgx.NewPlatform("other", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Enclave:        tc.workerEnclave,
		Addr:           tc.server.Addr(),
		CASMeasurement: tc.server.Measurement(),
		PlatformKeys: map[string]*ecdsa.PublicKey{
			// Trust store lacks the CAS platform.
			other.Name(): other.AttestationKey(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(); err == nil {
		t.Fatal("bootstrap accepted unknown CAS platform")
	}
}

func TestRegisterAndAttest(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.newClient(t)
	if err := c.Register(tc.defaultSession()); err != nil {
		t.Fatal(err)
	}
	prov, timing, err := c.Attest("training")
	if err != nil {
		t.Fatal(err)
	}
	if string(prov.Secrets["code-key"]) != "0123456789abcdef" {
		t.Fatal("secrets not provisioned")
	}
	if len(prov.Volumes["data"]) != 32 {
		t.Fatal("volume key not provisioned")
	}
	if prov.Identity == nil {
		t.Fatal("TLS identity not issued")
	}
	if prov.CAPool == nil {
		t.Fatal("CA pool missing")
	}
	if timing.Total() <= 0 {
		t.Fatal("attestation charged no virtual time")
	}
	// Leg sanity: all legs non-negative, init dominates for local CAS.
	if timing.Initialization <= 0 || timing.SendQuote < 0 || timing.WaitConfirmation < 0 || timing.ReceiveKeys < 0 {
		t.Fatalf("bad legs: %+v", timing)
	}
}

func TestAttestRejectsUnadmittedMeasurement(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.newClient(t)
	session := tc.defaultSession()
	session.Measurements = []string{strings.Repeat("00", 32)} // nobody
	if err := c.Register(session); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attest("training"); err == nil || !strings.Contains(err.Error(), "not admitted") {
		t.Fatalf("err = %v, want measurement rejection", err)
	}
}

func TestAttestRejectsSIMUnlessAllowed(t *testing.T) {
	tc := newTestCluster(t)
	simEnclave, err := tc.workerPlat.CreateEnclave(tc.workerImage, sgx.ModeSIM)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Enclave:        simEnclave,
		Addr:           tc.server.Addr(),
		CASMeasurement: tc.server.Measurement(),
		PlatformKeys: map[string]*ecdsa.PublicKey{
			tc.casPlatform.Name(): tc.casPlatform.AttestationKey(),
			tc.workerPlat.Name():  tc.workerPlat.AttestationKey(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	session := tc.defaultSession()
	if err := c.Register(session); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attest("training"); err == nil {
		t.Fatal("SIM quote accepted by production session")
	}

	session.AllowSIM = true
	if err := c.Register(session); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attest("training"); err != nil {
		t.Fatalf("SIM quote rejected despite AllowSIM: %v", err)
	}
}

func TestAttestUnknownSession(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.newClient(t)
	if _, _, err := c.Attest("missing"); err == nil {
		t.Fatal("unknown session accepted")
	}
}

func TestRegisterOwnership(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.newClient(t)
	s1 := tc.defaultSession()
	if err := c.Register(s1); err != nil {
		t.Fatal(err)
	}
	// Update with the same token: allowed.
	s1.Secrets["code-key"] = []byte("new")
	if err := c.Register(s1); err != nil {
		t.Fatal(err)
	}
	// Hijack with a different token: rejected.
	s2 := tc.defaultSession()
	s2.OwnerToken = "attacker"
	if err := c.Register(s2); err == nil || !strings.Contains(err.Error(), "owner token") {
		t.Fatalf("err = %v, want owner token rejection", err)
	}
}

func TestAuditServiceViaCAS(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.newClient(t)
	audit := c.AuditClient()
	var root [32]byte
	root[0] = 7

	epoch, _, found, err := audit.CheckRoot("models/m1")
	if err != nil || found || epoch != 0 {
		t.Fatalf("CheckRoot fresh = %d %v %v", epoch, found, err)
	}
	if err := audit.AdvanceRoot("models/m1", 1, root); err != nil {
		t.Fatal(err)
	}
	// An exact replay is a retried round trip and succeeds; the same
	// epoch with another root, or a lower epoch, does not.
	if err := audit.AdvanceRoot("models/m1", 1, root); err != nil {
		t.Fatalf("exact replay refused: %v", err)
	}
	other := root
	other[1] = 1
	if err := audit.AdvanceRoot("models/m1", 1, other); err == nil {
		t.Fatal("repeated epoch with another root accepted")
	}
	if err := audit.AdvanceRoot("models/m1", 9, root); err != nil {
		t.Fatal(err)
	}
	if err := audit.AdvanceRoot("models/m1", 1, root); err == nil {
		t.Fatal("lower epoch accepted")
	}
	epoch, gotRoot, found, err := audit.CheckRoot("models/m1")
	if err != nil || !found || epoch != 9 || gotRoot != root {
		t.Fatalf("CheckRoot = %d %v %v %v", epoch, gotRoot, found, err)
	}
}

func TestAttestTimingLegsCASFasterThanWAN(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.newClient(t)
	if err := c.Register(tc.defaultSession()); err != nil {
		t.Fatal(err)
	}
	_, timing, err := c.Attest("training")
	if err != nil {
		t.Fatal(err)
	}
	// The headline property behind Figure 4: local verification is
	// millisecond-scale, nothing like the ~280 ms IAS confirmation.
	if timing.WaitConfirmation > 20*time.Millisecond {
		t.Fatalf("WaitConfirmation = %v, want local-scale latency", timing.WaitConfirmation)
	}
}

func TestSessionPersistsAcrossCASRestart(t *testing.T) {
	casPlat, err := sgx.NewPlatform("cas-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	storeFS := fsapi.NewMem()
	server, err := NewServer(ServerConfig{Platform: casPlat, StoreFS: storeFS})
	if err != nil {
		t.Fatal(err)
	}

	workerPlat, err := sgx.NewPlatform("worker-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	server.TrustPlatform(workerPlat.Name(), workerPlat.AttestationKey())
	img := sgx.SyntheticImage("worker", 2<<20, 1<<20)
	enclave, err := workerPlat.CreateEnclave(img, sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*ecdsa.PublicKey{
		casPlat.Name():    casPlat.AttestationKey(),
		workerPlat.Name(): workerPlat.AttestationKey(),
	}
	c, err := NewClient(ClientConfig{Enclave: enclave, Addr: server.Addr(), CASMeasurement: server.Measurement(), PlatformKeys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	session := &Session{
		Name:         "persist",
		OwnerToken:   "tok",
		Measurements: []string{enclave.Measurement().Hex()},
		Secrets:      map[string][]byte{"k": []byte("v")},
	}
	if err := c.Register(session); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the CAS on the same platform with the same store.
	server2, err := NewServer(ServerConfig{Platform: casPlat, StoreFS: storeFS})
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	server2.TrustPlatform(workerPlat.Name(), workerPlat.AttestationKey())
	c2, err := NewClient(ClientConfig{Enclave: enclave, Addr: server2.Addr(), CASMeasurement: server2.Measurement(), PlatformKeys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	prov, _, err := c2.Attest("persist")
	if err != nil {
		t.Fatal(err)
	}
	if string(prov.Secrets["k"]) != "v" {
		t.Fatal("session lost across CAS restart")
	}
}

func TestServerEnclaveAccessor(t *testing.T) {
	tc := newTestCluster(t)
	e := tc.server.Enclave()
	if e == nil {
		t.Fatal("CAS has no enclave")
	}
	if e.Measurement() != tc.server.Measurement() {
		t.Fatal("measurement mismatch")
	}
}

// TestCloseWithIdlePeer pins the shutdown contract of the shared
// connection substrate at the CAS: a TCP peer that connects and never
// speaks — its handler parked in the TLS handshake read — must not
// hang Close.
func TestCloseWithIdlePeer(t *testing.T) {
	tc := newTestCluster(t)
	peer, err := net.Dial("tcp", tc.server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// Connections are accepted in order, so once a later client has
	// been answered the idle peer's handler is running.
	tc.newClient(t)

	done := make(chan error, 1)
	go func() { done <- tc.server.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while an idle peer held its connection open")
	}
}

// TestOversizedRequestIsCutOff pins the decoder's per-connection cap: a
// peer streaming an endless JSON string — before any quote could be
// checked — is disconnected at MaxConnBytes (a server that buffered
// without limit would take it all and wait for the closing quote, so
// the read would end in the deadline), and the accept loop serves the
// next attested client.
func TestOversizedRequestIsCutOff(t *testing.T) {
	tc := newTestCluster(t)
	peer, err := tls.Dial("tcp", tc.server.Addr(), &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.SetDeadline(time.Now().Add(10 * time.Second))
	flood := append([]byte(`{"type":"`), bytes.Repeat([]byte{'a'}, 2*MaxConnBytes)...)
	peer.Write(flood) // fails or not with when the server hangs up
	n, err := peer.Read(make([]byte, 1))
	var timeout net.Error
	switch {
	case err == nil:
		t.Fatalf("the server answered an unterminated request with %d bytes", n)
	case errors.As(err, &timeout) && timeout.Timeout():
		t.Fatalf("the server was still reading after %d bytes", len(flood))
	}

	c := tc.newClient(t)
	if err := c.Register(tc.defaultSession()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Attest("training"); err != nil {
		t.Fatal(err)
	}
}
