package cas

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/sgx"
)

// Client attests an enclave to a CAS instance and receives the session's
// secrets, volume keys and TLS identity. Before the first attestation the
// client bootstraps trust into the CAS itself via RA-TLS (it verifies a
// CAS quote over the CAS TLS certificate), implementing the paper's
// "the user needs to establish trust into the CAS instance".
//
// Register and the audit calls share one kept TLS connection to the CAS,
// made on first use; Bootstrap and Attest each make their own. Close
// closes the kept connection.
type Client struct {
	enclave        *sgx.Enclave
	meter          sgx.Meter // the enclave's platform's
	addr           string
	casMeasurement sgx.Measurement
	platformKeys   map[string]*ecdsa.PublicKey
	dial           func(network, addr string) (net.Conn, error)

	caPool *x509.CertPool // pinned after Bootstrap

	mu   sync.Mutex // orders round trips on kept
	kept *keptConn  // nil until the first round trip, and after a failed one
}

// keptConn is the client's kept connection to the CAS, with what it has
// sent and what it may still read: the CAS decodes at most MaxConnBytes
// from one connection, and so does the client.
type keptConn struct {
	conn   net.Conn
	in     *io.LimitedReader
	out    bytes.Buffer // the request being sent
	cdc    codec        // encodes into out, decodes from in
	sent   int64
	served bool // a round trip completed on it
}

// replyRoom is what a kept connection must still be able to read to
// carry another round trip: a register or audit reply is a few hundred
// bytes.
const replyRoom = 64 << 10

func newKeptConn(conn net.Conn) *keptConn {
	k := &keptConn{conn: conn, in: &io.LimitedReader{R: conn, N: MaxConnBytes}}
	k.cdc = codec{enc: json.NewEncoder(&k.out), dec: json.NewDecoder(k.in)}
	return k
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Enclave is the local enclave being attested. Required.
	Enclave *sgx.Enclave
	// Addr is the CAS address. Required.
	Addr string
	// CASMeasurement is the expected CAS enclave measurement. Required.
	CASMeasurement sgx.Measurement
	// PlatformKeys is the trust store of platform attestation keys, by
	// platform name. Must include the CAS's platform. Required.
	PlatformKeys map[string]*ecdsa.PublicKey
	// Dial overrides the dial function (e.g. to route through a SCONE
	// runtime). Defaults to net.Dial.
	Dial func(network, addr string) (net.Conn, error)
}

// Provision is the material received after a successful attestation.
type Provision struct {
	Secrets  map[string][]byte
	Volumes  map[string][]byte
	Identity *tls.Certificate // nil if the session issues no identity
	CAPool   *x509.CertPool   // the CAS CA, for the network shield
}

// AttestTiming breaks an attestation round into the four legs of the
// paper's Figure 4. Durations are virtual time.
type AttestTiming struct {
	Initialization   time.Duration
	SendQuote        time.Duration
	WaitConfirmation time.Duration
	ReceiveKeys      time.Duration
}

// Total sums all legs.
func (t AttestTiming) Total() time.Duration {
	return t.Initialization + t.SendQuote + t.WaitConfirmation + t.ReceiveKeys
}

// NewClient validates the configuration.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Enclave == nil {
		return nil, fmt.Errorf("cas: ClientConfig.Enclave is required")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("cas: ClientConfig.Addr is required")
	}
	if len(cfg.PlatformKeys) == 0 {
		return nil, fmt.Errorf("cas: ClientConfig.PlatformKeys is required")
	}
	dial := cfg.Dial
	if dial == nil {
		dial = net.Dial
	}
	keys := make(map[string]*ecdsa.PublicKey, len(cfg.PlatformKeys))
	for k, v := range cfg.PlatformKeys {
		keys[k] = v
	}
	return &Client{
		enclave:        cfg.Enclave,
		meter:          cfg.Enclave.Platform().Meter(),
		addr:           cfg.Addr,
		casMeasurement: cfg.CASMeasurement,
		platformKeys:   keys,
		dial:           dial,
	}, nil
}

// Bootstrap establishes trust in the CAS: it connects without verifying
// the TLS certificate, requests a quote binding that very certificate,
// verifies the quote against the pinned CAS measurement and a trusted
// platform key, and only then pins the CAS CA for future connections.
func (c *Client) Bootstrap() error {
	clock := c.enclave.Clock()

	raw, err := c.dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("cas: bootstrap dial: %w", err)
	}
	// InsecureSkipVerify is sound here: the certificate is verified
	// through the quote, not through a PKI (RA-TLS pattern).
	conn := tls.Client(raw, &tls.Config{MinVersion: tls.VersionTLS13, InsecureSkipVerify: true})
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		return fmt.Errorf("cas: bootstrap handshake: %w", err)
	}
	c.meter.Handshake()
	state := conn.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		return errors.New("cas: bootstrap: CAS presented no certificate")
	}
	leafDER := state.PeerCertificates[0].Raw

	nonce := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return fmt.Errorf("cas: bootstrap nonce: %w", err)
	}
	cdc := newCodec(conn)
	if err := cdc.writeRequest(&request{Type: reqBootstrap, Nonce: nonce, SenderVTime: int64(clock.Now())}); err != nil {
		return err
	}
	var resp response
	if err := cdc.readResponse(&resp); err != nil {
		return err
	}
	c.meter.Arrive(time.Duration(resp.SenderVTime))
	if !resp.OK {
		return fmt.Errorf("cas: bootstrap rejected: %s", resp.Error)
	}
	if resp.Quote == nil {
		return errors.New("cas: bootstrap response missing quote")
	}

	// Verify the CAS quote: trusted platform, pinned measurement, report
	// data binding the TLS certificate we actually spoke to.
	key, ok := c.platformKeys[resp.Quote.Report.Platform]
	if !ok {
		return fmt.Errorf("cas: bootstrap: unknown CAS platform %q", resp.Quote.Report.Platform)
	}
	c.meter.QuoteCheck()
	if err := sgx.VerifyQuote(*resp.Quote, key); err != nil {
		return fmt.Errorf("cas: bootstrap: %w", err)
	}
	if resp.Quote.Report.Measurement != c.casMeasurement {
		return fmt.Errorf("cas: bootstrap: CAS measurement %s does not match pinned %s",
			resp.Quote.Report.Measurement, c.casMeasurement)
	}
	var want [sgx.ReportDataSize]byte
	copy(want[:], bindCert(leafDER, nonce))
	if resp.Quote.Report.ReportData != want {
		return errors.New("cas: bootstrap: quote does not bind the TLS certificate")
	}

	pool := x509.NewCertPool()
	caCert, err := x509.ParseCertificate(resp.CACert)
	if err != nil {
		return fmt.Errorf("cas: bootstrap: parsing CA certificate: %w", err)
	}
	pool.AddCert(caCert)
	c.caPool = pool
	return nil
}

// connect dials the CAS over TLS verified against the pinned CA. Each
// connection it makes is one handshake charged.
func (c *Client) connect() (net.Conn, error) {
	if c.caPool == nil {
		return nil, errors.New("cas: client not bootstrapped")
	}
	raw, err := c.dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("cas: dial: %w", err)
	}
	host, _, err := net.SplitHostPort(c.addr)
	if err != nil {
		host = c.addr
	}
	conn := tls.Client(raw, &tls.Config{
		MinVersion: tls.VersionTLS13,
		RootCAs:    c.caPool,
		ServerName: host,
	})
	if err := conn.Handshake(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("cas: handshake: %w", err)
	}
	c.meter.Handshake()
	return conn, nil
}

// roundTrip sends one request over the kept connection and reads one
// response. A round trip that fails on a connection that had already
// served one (the CAS restarted, or dropped it) is tried once more on a
// fresh connection; every request that goes through here may be sent
// twice (the CAS takes an exact replay of an audit advance as success).
func (c *Client) roundTrip(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, retry, err := c.exchange(req)
	if retry {
		resp, _, err = c.exchange(req)
	}
	if err != nil {
		return nil, err
	}
	c.meter.Arrive(time.Duration(resp.SenderVTime))
	if !resp.OK {
		return nil, fmt.Errorf("cas: %s", resp.Error)
	}
	return resp, nil
}

// exchange is one try of roundTrip. On an error it drops the kept
// connection and reports whether that connection had served a request.
func (c *Client) exchange(req *request) (resp *response, retry bool, err error) {
	k, err := c.stage(req)
	if err != nil {
		return nil, false, err
	}
	resp = new(response)
	if _, err = k.conn.Write(k.out.Bytes()); err == nil {
		k.sent += int64(k.out.Len())
		err = k.cdc.readResponse(resp)
	}
	if err != nil {
		c.drop()
		return nil, k.served, err
	}
	k.served = true
	return resp, false, nil
}

// stage stamps and encodes req for the kept connection, first making
// one, or replacing one that could not carry it within MaxConnBytes.
func (c *Client) stage(req *request) (*keptConn, error) {
	for {
		if c.kept == nil {
			conn, err := c.connect()
			if err != nil {
				return nil, err
			}
			c.kept = newKeptConn(conn)
		}
		k := c.kept
		req.SenderVTime = int64(c.enclave.Clock().Now())
		k.out.Reset()
		if err := k.cdc.writeRequest(req); err != nil {
			return nil, err
		}
		if k.sent+int64(k.out.Len()) <= MaxConnBytes && k.in.N >= replyRoom {
			return k, nil
		}
		if k.sent == 0 {
			return nil, fmt.Errorf("cas: a %d-byte request exceeds a connection's %d bytes", k.out.Len(), MaxConnBytes)
		}
		c.drop()
	}
}

// drop closes the kept connection; the next round trip makes another.
func (c *Client) drop() error {
	if c.kept == nil {
		return nil
	}
	err := c.kept.conn.Close()
	c.kept = nil
	return err
}

// Close closes the kept connection, if there is one. A later Register or
// audit call makes a new one.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drop()
}

// Register uploads a session definition.
func (c *Client) Register(session *Session) error {
	_, err := c.roundTrip(&request{Type: reqRegister, SessionDef: session})
	return err
}

// Attest runs the attestation round for the named session and returns the
// provisioned material plus per-leg timing (Figure 4).
func (c *Client) Attest(session string) (*Provision, AttestTiming, error) {
	var timing AttestTiming
	clock := c.enclave.Clock()

	// Leg 1 — initialization: ephemeral keys, socket, TLS session to the
	// CAS.
	span := clock.Start()
	c.meter.AttestInit()
	conn, err := c.connect()
	if err != nil {
		return nil, timing, err
	}
	defer conn.Close()
	timing.Initialization = span.Stop()

	// Leg 2 — produce and send the quote.
	span = clock.Start()
	nonce := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, timing, fmt.Errorf("cas: nonce: %w", err)
	}
	quote, err := c.enclave.GetQuote(bindReportData(session, nonce), sgx.QEVendorDCAP)
	if err != nil {
		return nil, timing, err
	}
	cdc := newCodec(conn)
	req := &request{Type: reqAttest, Session: session, Quote: &quote, Nonce: nonce, SenderVTime: int64(clock.Now())}
	if err := cdc.writeRequest(req); err != nil {
		return nil, timing, err
	}
	c.meter.Transit()
	timing.SendQuote = span.Stop()

	// Leg 3 — wait for the CAS verdict.
	span = clock.Start()
	var resp response
	if err := cdc.readResponse(&resp); err != nil {
		return nil, timing, err
	}
	c.meter.Arrive(time.Duration(resp.SenderVTime))
	if !resp.OK {
		return nil, timing, fmt.Errorf("cas: attestation rejected: %s", resp.Error)
	}
	timing.WaitConfirmation = span.Stop()

	// Leg 4 — unpack the provisioned material.
	span = clock.Start()
	prov, err := c.unpack(&resp)
	if err != nil {
		return nil, timing, err
	}
	timing.ReceiveKeys = span.Stop()
	return prov, timing, nil
}

func (c *Client) unpack(resp *response) (*Provision, error) {
	prov := &Provision{Secrets: resp.Secrets, Volumes: resp.Volumes, CAPool: c.caPool}
	var received int
	for _, v := range resp.Secrets {
		received += len(v)
	}
	for _, v := range resp.Volumes {
		received += len(v)
	}
	c.enclave.CryptoOp(int64(received))
	c.meter.Transit()
	if len(resp.CertDER) > 0 {
		key, err := x509.ParseECPrivateKey(resp.KeyDER)
		if err != nil {
			return nil, fmt.Errorf("cas: parsing identity key: %w", err)
		}
		prov.Identity = &tls.Certificate{Certificate: resp.CertDER, PrivateKey: key}
	}
	return prov, nil
}

// AuditClient returns an adapter implementing the file-system shield's
// AuditService interface against this CAS.
func (c *Client) AuditClient() *AuditClient {
	return &AuditClient{client: c}
}

// AuditClient proxies fsshield audit calls to the CAS.
type AuditClient struct {
	client *Client
}

// AdvanceRoot implements fsshield.AuditService.
func (a *AuditClient) AdvanceRoot(path string, epoch uint64, root [32]byte) error {
	_, err := a.client.roundTrip(&request{Type: reqAuditAdvance, Path: path, Epoch: epoch, Root: root[:]})
	return err
}

// CheckRoot implements fsshield.AuditService.
func (a *AuditClient) CheckRoot(path string) (uint64, [32]byte, bool, error) {
	resp, err := a.client.roundTrip(&request{Type: reqAuditCheck, Path: path})
	if err != nil {
		return 0, [32]byte{}, false, err
	}
	var root [32]byte
	copy(root[:], resp.Root)
	return resp.Epoch, root, resp.Found, nil
}
