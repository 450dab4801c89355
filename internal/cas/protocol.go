package cas

import (
	"encoding/json"
	"fmt"
	"io"
	"net"

	"github.com/securetf/securetf/internal/sgx"
)

// Request types understood by the CAS wire protocol.
const (
	reqBootstrap    = "bootstrap"
	reqRegister     = "register"
	reqAttest       = "attest"
	reqAuditAdvance = "audit-advance"
	reqAuditCheck   = "audit-check"
)

// request is the CAS wire request envelope. SenderVTime carries the
// sender's virtual clock so the receiver can advance to a causally
// consistent time (conservative distributed virtual-time sync).
type request struct {
	Type        string `json:"type"`
	SenderVTime int64  `json:"sender_vtime"`

	Session string     `json:"session,omitempty"`
	Quote   *sgx.Quote `json:"quote,omitempty"`
	Nonce   []byte     `json:"nonce,omitempty"`

	SessionDef *Session `json:"session_def,omitempty"`

	Path  string `json:"path,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	Root  []byte `json:"root,omitempty"`
}

// response is the CAS wire response envelope.
type response struct {
	OK          bool   `json:"ok"`
	Error       string `json:"error,omitempty"`
	SenderVTime int64  `json:"sender_vtime"`

	// bootstrap
	Quote  *sgx.Quote `json:"quote,omitempty"`
	CACert []byte     `json:"ca_cert,omitempty"`

	// attest
	Secrets map[string][]byte `json:"secrets,omitempty"`
	Volumes map[string][]byte `json:"volumes,omitempty"`
	CertDER [][]byte          `json:"cert_der,omitempty"`
	KeyDER  []byte            `json:"key_der,omitempty"`

	// audit-check
	Epoch uint64 `json:"epoch,omitempty"`
	Root  []byte `json:"root,omitempty"`
	Found bool   `json:"found,omitempty"`
}

// MaxConnBytes caps what one attestation connection may make its peer
// read: a session definition with its volume keys, or an attest reply
// with its certificates, is a few KiB. A JSON decoder buffers a value
// until it ends, so without the cap one peer could make the CAS enclave
// buffer without limit before any quote is checked. A client's kept
// connection, which carries many small register and audit round trips,
// is replaced before it would pass the cap.
const MaxConnBytes = 1 << 20

// BoundedDecoder decodes the JSON messages of one connection and fails
// once the peer has sent MaxConnBytes. The bytes on the wire are the
// plain encoder's.
func BoundedDecoder(conn io.Reader) *json.Decoder {
	return json.NewDecoder(io.LimitReader(conn, MaxConnBytes))
}

// codec frames JSON messages over a connection.
type codec struct {
	enc *json.Encoder
	dec *json.Decoder
}

func newCodec(conn net.Conn) *codec {
	return &codec{enc: json.NewEncoder(conn), dec: BoundedDecoder(conn)}
}

func (c *codec) writeRequest(r *request) error {
	if err := c.enc.Encode(r); err != nil {
		return fmt.Errorf("cas: encoding request: %w", err)
	}
	return nil
}

func (c *codec) readRequest(r *request) error {
	return c.dec.Decode(r)
}

func (c *codec) writeResponse(r *response) error {
	if err := c.enc.Encode(r); err != nil {
		return fmt.Errorf("cas: encoding response: %w", err)
	}
	return nil
}

func (c *codec) readResponse(r *response) error {
	if err := c.dec.Decode(r); err != nil {
		return fmt.Errorf("cas: decoding response: %w", err)
	}
	return nil
}
