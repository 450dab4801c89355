package cas

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"

	"github.com/securetf/securetf/internal/sgx"
)

// peerConn is a CAS connection from a peer that sends in and then, if
// endless, whitespace without end: a next request it never finishes. It
// counts what the server reads and keeps what the server writes.
type peerConn struct {
	net.Conn // nil: the CAS's connection loop uses Read and Write only
	in       *bytes.Reader
	endless  bool
	read     int
	out      bytes.Buffer
}

var spaces = bytes.Repeat([]byte{' '}, 32<<10)

func (c *peerConn) Read(p []byte) (int, error) {
	if c.read > MaxConnBytes {
		return 0, errors.New("the server read past MaxConnBytes")
	}
	n, err := c.in.Read(p)
	if n == 0 && c.endless {
		n, err = copy(p, spaces[:min(len(spaces), MaxConnBytes+1-c.read)]), nil
	}
	c.read += n
	return n, err
}

func (c *peerConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// serveBytes runs one CAS connection whose peer sends in and returns the
// responses the CAS wrote, failing on any that does not decode or that
// refuses without saying why.
func serveBytes(t *testing.T, s *Server, in []byte, endless bool) []response {
	t.Helper()
	conn := &peerConn{in: bytes.NewReader(in), endless: endless}
	s.handleConn(conn)
	if conn.read > MaxConnBytes {
		t.Fatalf("the CAS read %d bytes of one connection, past MaxConnBytes", conn.read)
	}
	var out []response
	dec := json.NewDecoder(&conn.out)
	for {
		var r response
		if err := dec.Decode(&r); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("the CAS wrote a response that does not decode: %v", err)
		}
		if !r.OK && r.Error == "" {
			t.Fatalf("the CAS refused request %d without an error", len(out))
		}
		out = append(out, r)
	}
}

// requestBytes is what a client puts on the wire for reqs.
func requestBytes(t testing.TB, reqs ...*request) []byte {
	var buf bytes.Buffer
	for _, r := range reqs {
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// attestRequest is a well-formed attestation of the worker enclave to
// session, with a fresh nonce.
func (tc *testCluster) attestRequest(t testing.TB, session string) *request {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	quote, err := tc.workerEnclave.GetQuote(bindReportData(session, nonce), sgx.QEVendorDCAP)
	if err != nil {
		t.Fatal(err)
	}
	return &request{Type: reqAttest, Session: session, Quote: &quote, Nonce: nonce}
}

// FuzzCASProtocol: whatever bytes a peer sends the CAS, each request is
// answered with a response that decodes — an error one when it is not a
// well-formed request — or the connection is dropped; the CAS neither
// panics nor reads more than MaxConnBytes of the connection, and
// afterwards registers and attests a well-formed client as before.
func FuzzCASProtocol(f *testing.F) {
	tc := newTestCluster(f)
	session := tc.defaultSession()
	f.Add(requestBytes(f, &request{Type: reqBootstrap, Nonce: make([]byte, 32)}))
	f.Add(requestBytes(f, &request{Type: reqRegister, SessionDef: session, SenderVTime: 1}))
	f.Add(requestBytes(f, &request{Type: reqRegister, SessionDef: session}, tc.attestRequest(f, session.Name)))
	f.Add(requestBytes(f,
		&request{Type: reqAuditAdvance, Path: "/data/model", Epoch: 1, Root: make([]byte, 32)},
		&request{Type: reqAuditCheck, Path: "/data/model"}))
	f.Add([]byte(`{"type":"attest","session":"training","quote":{}}` + "\n" + `{"type":"nope"}`))
	f.Add([]byte(`{"type":"register","session_def":{"name":"x","volumes":{"v":"AAAA"}}}{"type":"`))

	// The well-formed client owns its session with a token no seed holds,
	// so an input can replace the session only by breaking the CAS. A
	// quote is costly to make, so the client's requests are made once.
	own := tc.defaultSession()
	own.Name, own.OwnerToken, own.Services = "well-formed", rand.Text(), nil
	client := requestBytes(f, &request{Type: reqRegister, SessionDef: own}, tc.attestRequest(f, own.Name))
	f.Fuzz(func(t *testing.T, data []byte) {
		serveBytes(t, tc.server, data, true)
		resps := serveBytes(t, tc.server, client, false)
		if len(resps) != 2 || !resps[0].OK || !resps[1].OK || string(resps[1].Secrets["code-key"]) != string(own.Secrets["code-key"]) {
			t.Fatalf("after the fuzz input a well-formed register and attest got %+v", resps)
		}
	})
}
