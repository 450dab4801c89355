package cas

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/wire"
)

// ImageName is the canonical CAS enclave image name; clients pin the
// derived measurement.
const ImageName = "securetf-cas"

// Image returns the CAS enclave image. The binary is small — the CAS is a
// Rust service in the paper, here a fixed synthetic footprint.
func Image() sgx.Image {
	return sgx.SyntheticImage(ImageName, 6<<20, 32<<20)
}

// ServerConfig configures a CAS instance.
type ServerConfig struct {
	// Platform hosts the CAS enclave. Required.
	Platform *sgx.Platform
	// Mode is the CAS enclave mode; production is HW. Defaults to HW.
	Mode sgx.Mode
	// StoreFS is where the encrypted store persists. Required.
	StoreFS fsapi.FS
	// ListenAddr is the TCP address to listen on, e.g. "127.0.0.1:0".
	ListenAddr string
	// Hosts are the SAN entries of the CAS TLS certificate. Defaults to
	// localhost addresses.
	Hosts []string
	// TrustedPlatforms maps platform names to their attestation public
	// keys; quotes from unknown platforms are rejected. The CAS's own
	// platform is always trusted.
	TrustedPlatforms map[string]*ecdsa.PublicKey
}

// Server is a running CAS.
type Server struct {
	cfg     ServerConfig
	enclave *sgx.Enclave
	store   *Store
	ca      *seccrypto.CA
	ln      net.Listener
	leaf    []byte // DER of the CAS TLS leaf certificate (RA-TLS binding)

	mu        sync.Mutex
	platforms map[string]*ecdsa.PublicKey

	srv *wire.Server
}

// NewServer creates the CAS enclave, opens the store and starts serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("cas: ServerConfig.Platform is required")
	}
	if cfg.StoreFS == nil {
		return nil, fmt.Errorf("cas: ServerConfig.StoreFS is required")
	}
	if cfg.Mode == 0 {
		cfg.Mode = sgx.ModeHW
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = []string{"localhost", "127.0.0.1"}
	}

	enclave, err := cfg.Platform.CreateEnclave(Image(), cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("cas: creating enclave: %w", err)
	}
	store, err := OpenStore(enclave, cfg.StoreFS, "")
	if err != nil {
		enclave.Destroy()
		return nil, err
	}
	// The CA is generated inside the CAS enclave; the private key never
	// leaves it (paper §7.3).
	ca, err := seccrypto.NewCA("securetf-cas-ca")
	if err != nil {
		enclave.Destroy()
		return nil, err
	}
	serverCert, err := ca.Issue("securetf-cas", cfg.Hosts...)
	if err != nil {
		enclave.Destroy()
		return nil, err
	}

	ln, err := tls.Listen("tcp", cfg.ListenAddr, &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{serverCert},
	})
	if err != nil {
		enclave.Destroy()
		return nil, fmt.Errorf("cas: listen: %w", err)
	}

	s := &Server{
		cfg:       cfg,
		enclave:   enclave,
		store:     store,
		ca:        ca,
		ln:        ln,
		leaf:      serverCert.Certificate[0],
		platforms: make(map[string]*ecdsa.PublicKey, len(cfg.TrustedPlatforms)+1),
	}
	for name, key := range cfg.TrustedPlatforms {
		s.platforms[name] = key
	}
	s.platforms[cfg.Platform.Name()] = cfg.Platform.AttestationKey()

	s.srv = wire.Serve(ln, s.handleConn)
	return s, nil
}

// Addr returns the address the CAS listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Enclave returns the CAS enclave (for tests and experiments).
func (s *Server) Enclave() *sgx.Enclave { return s.enclave }

// Measurement returns the CAS enclave measurement clients should pin.
func (s *Server) Measurement() sgx.Measurement { return s.enclave.Measurement() }

// TrustPlatform registers an additional platform attestation key.
func (s *Server) TrustPlatform(name string, key *ecdsa.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.platforms[name] = key
}

// Close stops the server: live connections are closed, their handlers
// waited for, and the CAS enclave destroyed.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.enclave.Destroy()
	return err
}

func (s *Server) handleConn(conn net.Conn) {
	c := newCodec(conn)
	for {
		var req request
		if err := c.readRequest(&req); err != nil {
			return // EOF or garbage: drop the connection
		}
		// Conservative virtual-time sync: the request cannot be processed
		// before it was sent plus one network traversal.
		meter := s.cfg.Platform.Meter()
		meter.Arrive(time.Duration(req.SenderVTime))

		resp := s.dispatch(conn, &req)
		resp.SenderVTime = int64(meter.Clock().Now())
		if err := c.writeResponse(resp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(conn net.Conn, req *request) *response {
	switch req.Type {
	case reqBootstrap:
		return s.handleBootstrap(conn, req)
	case reqRegister:
		return s.handleRegister(req)
	case reqAttest:
		return s.handleAttest(req)
	case reqAuditAdvance:
		return s.handleAuditAdvance(req)
	case reqAuditCheck:
		return s.handleAuditCheck(req)
	default:
		return errResponse(fmt.Errorf("unknown request type %q", req.Type))
	}
}

func errResponse(err error) *response {
	return &response{OK: false, Error: err.Error()}
}

// handleBootstrap implements RA-TLS: the CAS quotes over the hash of its
// TLS leaf certificate and the caller's nonce, proving that the TLS
// endpoint terminates inside the attested CAS enclave. The caller
// compares the leaf it saw during the handshake with the quoted one.
func (s *Server) handleBootstrap(conn net.Conn, req *request) *response {
	if _, ok := conn.(*tls.Conn); !ok {
		return errResponse(errors.New("bootstrap requires TLS"))
	}
	quote, err := s.enclave.GetQuote(bindCert(s.leaf, req.Nonce), sgx.QEVendorDCAP)
	if err != nil {
		return errResponse(err)
	}
	return &response{OK: true, Quote: &quote, CACert: s.ca.CertDER()}
}

// bindCert computes the report data binding a TLS certificate and nonce.
func bindCert(leafDER, nonce []byte) []byte {
	h := sha256.New()
	h.Write(leafDER)
	h.Write(nonce)
	return h.Sum(nil)
}

func (s *Server) handleRegister(req *request) *response {
	if req.SessionDef == nil || req.SessionDef.Name == "" {
		return errResponse(errors.New("register requires a session definition"))
	}
	def := req.SessionDef
	key := "session/" + def.Name
	if existing, err := s.store.Get(key); err == nil {
		var cur Session
		if err := json.Unmarshal(existing, &cur); err != nil {
			return errResponse(err)
		}
		if cur.OwnerToken != def.OwnerToken {
			return errResponse(errors.New("session exists and owner token does not match"))
		}
	} else if !errors.Is(err, ErrNotFound) {
		return errResponse(err)
	}
	raw, err := json.Marshal(def)
	if err != nil {
		return errResponse(err)
	}
	if err := s.store.Put(key, raw); err != nil {
		return errResponse(err)
	}
	return &response{OK: true}
}

func (s *Server) handleAttest(req *request) *response {
	if req.Quote == nil {
		return errResponse(errors.New("attest requires a quote"))
	}
	raw, err := s.store.Get("session/" + req.Session)
	if err != nil {
		return errResponse(fmt.Errorf("unknown session %q", req.Session))
	}
	var session Session
	if err := json.Unmarshal(raw, &session); err != nil {
		return errResponse(err)
	}

	// Verify the quote: platform known, signature valid, report data
	// bound to (session, nonce), measurement admitted by policy.
	s.mu.Lock()
	platformKey, ok := s.platforms[req.Quote.Report.Platform]
	s.mu.Unlock()
	if !ok {
		return errResponse(fmt.Errorf("unknown platform %q", req.Quote.Report.Platform))
	}
	s.cfg.Platform.Meter().QuoteCheck()
	if err := sgx.VerifyQuote(*req.Quote, platformKey); err != nil {
		return errResponse(err)
	}
	var want [sgx.ReportDataSize]byte
	copy(want[:], bindReportData(req.Session, req.Nonce))
	if req.Quote.Report.ReportData != want {
		return errResponse(errors.New("quote report data does not bind this attestation"))
	}
	if !session.allows(*req.Quote) {
		return errResponse(fmt.Errorf("measurement %s not admitted by session %q", req.Quote.Report.Measurement, req.Session))
	}

	resp := &response{OK: true, Secrets: session.Secrets, Volumes: session.Volumes, CACert: s.ca.CertDER()}
	// Issue a TLS identity for the session's service names.
	if len(session.Services) > 0 {
		cert, err := s.ca.Issue(session.Services[0], session.Services...)
		if err != nil {
			return errResponse(err)
		}
		resp.CertDER = cert.Certificate
		keyDER, err := x509.MarshalECPrivateKey(cert.PrivateKey.(*ecdsa.PrivateKey))
		if err != nil {
			return errResponse(err)
		}
		resp.KeyDER = keyDER
	}
	return resp
}

// bindReportData computes the attestation report data binding.
func bindReportData(session string, nonce []byte) []byte {
	h := sha256.New()
	h.Write([]byte("securetf-attest-v1"))
	h.Write([]byte(session))
	h.Write(nonce)
	return h.Sum(nil)
}

func (s *Server) handleAuditAdvance(req *request) *response {
	key := "audit/" + req.Path
	if raw, err := s.store.Get(key); err == nil {
		var cur auditRecord
		if err := json.Unmarshal(raw, &cur); err != nil {
			return errResponse(err)
		}
		// An exact replay of the recorded advance is a client retrying a
		// round trip whose reply it lost; it changes nothing.
		if req.Epoch == cur.Epoch && bytes.Equal(req.Root, cur.Root) {
			return &response{OK: true}
		}
		if req.Epoch <= cur.Epoch {
			return errResponse(fmt.Errorf("epoch for %q must exceed %d, got %d", req.Path, cur.Epoch, req.Epoch))
		}
	} else if !errors.Is(err, ErrNotFound) {
		return errResponse(err)
	}
	raw, err := json.Marshal(auditRecord{Epoch: req.Epoch, Root: req.Root})
	if err != nil {
		return errResponse(err)
	}
	if err := s.store.Put(key, raw); err != nil {
		return errResponse(err)
	}
	return &response{OK: true}
}

func (s *Server) handleAuditCheck(req *request) *response {
	raw, err := s.store.Get("audit/" + req.Path)
	if errors.Is(err, ErrNotFound) {
		return &response{OK: true, Found: false}
	}
	if err != nil {
		return errResponse(err)
	}
	var cur auditRecord
	if err := json.Unmarshal(raw, &cur); err != nil {
		return errResponse(err)
	}
	return &response{OK: true, Found: true, Epoch: cur.Epoch, Root: cur.Root}
}

type auditRecord struct {
	Epoch uint64 `json:"epoch"`
	Root  []byte `json:"root"`
}
