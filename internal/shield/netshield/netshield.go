// Package netshield implements secureTF's network shield (paper §3.3):
// TensorFlow applications have no end-to-end encryption of their own, so
// the shield transparently wraps every socket in TLS before data reaches
// the untrusted system software.
//
// Identities are ECDSA certificates issued by the CAS-internal CA and
// provisioned only after attestation; RSA key exchange does not exist in
// this stack (TLS 1.3 only, ECDHE key exchange), matching the paper's
// §7.3 recommendation to disable RSA in favour of forward-secret ECDHE.
//
// The shield charges the virtual clock for its CPU work: a handshake cost
// at connection setup and per-record processing (encrypt + double copy
// across the enclave boundary) on every read and write. Wire serialization
// is charged on the sending side.
package netshield

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/sgx"
)

// Config configures a network shield endpoint.
type Config struct {
	// Meter is charged for the shield's handshakes and records.
	// Required.
	Meter sgx.Meter
	// Identity is this endpoint's certificate, issued by the CAS.
	Identity tls.Certificate
	// RootCAs pins the CAS certificate authority; peers outside it are
	// rejected.
	RootCAs *x509.CertPool
	// RequireClientCert makes servers demand and verify a client
	// certificate (mutual TLS). Default true — in secureTF both sides
	// are attested services.
	RequireClientCert bool
}

// Shield wraps connections in TLS and charges shield costs.
type Shield struct {
	cfg Config
}

// New validates the configuration and creates a shield.
func New(cfg Config) (*Shield, error) {
	if cfg.Meter.Clock() == nil {
		return nil, fmt.Errorf("netshield: Config.Meter is required")
	}
	if len(cfg.Identity.Certificate) == 0 {
		return nil, fmt.Errorf("netshield: Config.Identity is required")
	}
	if cfg.RootCAs == nil {
		return nil, fmt.Errorf("netshield: Config.RootCAs is required")
	}
	return &Shield{cfg: cfg}, nil
}

// Client performs a TLS client handshake over conn, verifying the server
// against the pinned CAS roots.
func (s *Shield) Client(conn net.Conn, serverName string) (net.Conn, error) {
	tc := tls.Client(conn, &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{s.cfg.Identity},
		RootCAs:      s.cfg.RootCAs,
		ServerName:   serverName,
	})
	if err := tc.Handshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netshield: client handshake: %w", err)
	}
	s.cfg.Meter.Handshake()
	return &shieldConn{Conn: tc, shield: s}, nil
}

// Server performs a TLS server handshake over conn.
func (s *Shield) Server(conn net.Conn) (net.Conn, error) {
	clientAuth := tls.RequireAndVerifyClientCert
	if !s.cfg.RequireClientCert {
		clientAuth = tls.NoClientCert
	}
	tc := tls.Server(conn, &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{s.cfg.Identity},
		ClientCAs:    s.cfg.RootCAs,
		ClientAuth:   clientAuth,
	})
	if err := tc.Handshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netshield: server handshake: %w", err)
	}
	s.cfg.Meter.Handshake()
	return &shieldConn{Conn: tc, shield: s}, nil
}

// Dial connects using the provided dial function (typically the SCONE
// runtime's) and wraps the result as a TLS client.
func (s *Shield) Dial(dial func(network, addr string) (net.Conn, error), network, addr, serverName string) (net.Conn, error) {
	conn, err := dial(network, addr)
	if err != nil {
		return nil, err
	}
	return s.Client(conn, serverName)
}

// WrapListener returns a listener whose Accept performs the TLS server
// handshake before returning the connection.
func (s *Shield) WrapListener(ln net.Listener) net.Listener {
	return &shieldListener{Listener: ln, shield: s}
}

type shieldListener struct {
	net.Listener
	shield *Shield
}

func (l *shieldListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.shield.Server(conn)
}

// shieldConn charges per-record costs around the TLS connection.
type shieldConn struct {
	net.Conn
	shield *Shield
}

func (c *shieldConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.shield.cfg.Meter.Record(n)
	return n, err
}

// Write charges the records' CPU only; serialization and propagation are
// the protocol layers', so shielded and plain runs do not count them twice.
func (c *shieldConn) Write(p []byte) (int, error) {
	c.shield.cfg.Meter.Record(len(p))
	return c.Conn.Write(p)
}

// PeerName reports the common name of the connection's verified peer
// certificate, or empty if none.
func PeerName(conn net.Conn) string {
	sc, ok := conn.(*shieldConn)
	if !ok {
		return ""
	}
	tc, ok := sc.Conn.(*tls.Conn)
	if !ok {
		return ""
	}
	state := tc.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		return ""
	}
	return state.PeerCertificates[0].Subject.CommonName
}
