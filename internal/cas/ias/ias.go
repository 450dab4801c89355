// Package ias simulates the traditional Intel Attestation Service (IAS)
// flow that secureTF's CAS replaces — the baseline of the paper's
// Figure 4.
//
// In the traditional flow an enclave's EPID quote is uploaded to the
// tenant's key server, forwarded to Intel's WAN-distant attestation
// service for verification (several hundred milliseconds), and only then
// are keys released. The server here plays both the tenant key server and
// the IAS: verification charges one WAN round trip plus Intel-side
// processing, which is precisely the cost the CAS avoids by verifying
// DCAP quotes locally.
package ias

import (
	"crypto/ecdsa"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/wire"
)

// ServerConfig configures the simulated IAS + key server.
type ServerConfig struct {
	// Platform supplies the server-side clock and parameters. Required.
	Platform *sgx.Platform
	// TrustedPlatforms maps platform names to attestation keys. The
	// server's own platform is always trusted.
	TrustedPlatforms map[string]*ecdsa.PublicKey
	// ListenAddr defaults to "127.0.0.1:0".
	ListenAddr string
	// Secrets are the keys released after successful verification.
	Secrets map[string][]byte
}

// Server is the running IAS simulator.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu        sync.Mutex
	platforms map[string]*ecdsa.PublicKey

	srv *wire.Server
}

type iasRequest struct {
	Quote       sgx.Quote `json:"quote"`
	SenderVTime int64     `json:"sender_vtime"`
}

type iasMessage struct {
	Kind        string            `json:"kind"` // "confirmation" or "keys"
	OK          bool              `json:"ok"`
	Error       string            `json:"error,omitempty"`
	Secrets     map[string][]byte `json:"secrets,omitempty"`
	SenderVTime int64             `json:"sender_vtime"`
}

// NewServer starts the simulator.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("ias: ServerConfig.Platform is required")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("ias: listen: %w", err)
	}
	s := &Server{
		cfg:       cfg,
		ln:        ln,
		platforms: make(map[string]*ecdsa.PublicKey, len(cfg.TrustedPlatforms)+1),
	}
	for name, key := range cfg.TrustedPlatforms {
		s.platforms[name] = key
	}
	s.platforms[cfg.Platform.Name()] = cfg.Platform.AttestationKey()
	s.srv = wire.Serve(ln, s.handle)
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, closing live connections.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handle(conn net.Conn) {
	dec := cas.BoundedDecoder(conn)
	enc := json.NewEncoder(conn)
	var req iasRequest
	if err := dec.Decode(&req); err != nil {
		return
	}
	meter := s.cfg.Platform.Meter()
	clock := meter.Clock()
	meter.Arrive(time.Duration(req.SenderVTime))

	// Forward the quote to Intel over the WAN and wait for the
	// verification report. This is the leg the CAS eliminates.
	meter.IntelQuoteCheck()

	verdict := s.verify(req.Quote)
	confirmation := iasMessage{Kind: "confirmation", OK: verdict == nil, SenderVTime: int64(clock.Now())}
	if verdict != nil {
		confirmation.Error = verdict.Error()
	}
	if err := enc.Encode(&confirmation); err != nil || verdict != nil {
		return
	}

	// Keys are released by the tenant key server after confirmation.
	meter.Transit()
	keys := iasMessage{Kind: "keys", OK: true, Secrets: s.cfg.Secrets, SenderVTime: int64(clock.Now())}
	_ = enc.Encode(&keys)
}

func (s *Server) verify(q sgx.Quote) error {
	if q.QEVendor != sgx.QEVendorEPID {
		return errors.New("ias: only EPID quotes are accepted")
	}
	s.mu.Lock()
	key, ok := s.platforms[q.Report.Platform]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("ias: unknown platform %q", q.Report.Platform)
	}
	return sgx.VerifyQuote(q, key)
}

// Client runs the traditional attestation flow against the simulator and
// reports per-leg timing comparable to cas.Client.Attest.
type Client struct {
	// Enclave is the local enclave being attested. Required.
	Enclave *sgx.Enclave
	// Addr is the IAS simulator address. Required.
	Addr string
	// Dial overrides the dial function. Defaults to net.Dial.
	Dial func(network, addr string) (net.Conn, error)
}

// Attest runs the flow and returns the released keys and leg timings.
func (c *Client) Attest() (map[string][]byte, cas.AttestTiming, error) {
	var timing cas.AttestTiming
	if c.Enclave == nil {
		return nil, timing, fmt.Errorf("ias: Client.Enclave is required")
	}
	dial := c.Dial
	if dial == nil {
		dial = net.Dial
	}
	meter := c.Enclave.Platform().Meter()
	clock := meter.Clock()

	// Leg 1 — initialization: same client-side setup as the CAS flow.
	span := clock.Start()
	meter.AttestInit()
	meter.Handshake()
	conn, err := dial("tcp", c.Addr)
	if err != nil {
		return nil, timing, fmt.Errorf("ias: dial: %w", err)
	}
	defer conn.Close()
	timing.Initialization = span.Stop()

	// Leg 2 — produce and send the EPID quote.
	span = clock.Start()
	quote, err := c.Enclave.GetQuote(nil, sgx.QEVendorEPID)
	if err != nil {
		return nil, timing, err
	}
	enc := json.NewEncoder(conn)
	dec := cas.BoundedDecoder(conn)
	if err := enc.Encode(&iasRequest{Quote: quote, SenderVTime: int64(clock.Now())}); err != nil {
		return nil, timing, err
	}
	meter.Transit()
	timing.SendQuote = span.Stop()

	// Leg 3 — wait for the verification confirmation (WAN + Intel).
	span = clock.Start()
	var confirmation iasMessage
	if err := dec.Decode(&confirmation); err != nil {
		return nil, timing, err
	}
	meter.Arrive(time.Duration(confirmation.SenderVTime))
	if !confirmation.OK {
		return nil, timing, fmt.Errorf("ias: verification failed: %s", confirmation.Error)
	}
	timing.WaitConfirmation = span.Stop()

	// Leg 4 — receive the keys from the tenant key server.
	span = clock.Start()
	var keys iasMessage
	if err := dec.Decode(&keys); err != nil {
		return nil, timing, err
	}
	meter.Arrive(time.Duration(keys.SenderVTime))
	var received int
	for _, v := range keys.Secrets {
		received += len(v)
	}
	c.Enclave.CryptoOp(int64(received))
	timing.ReceiveKeys = span.Stop()
	return keys.Secrets, timing, nil
}
