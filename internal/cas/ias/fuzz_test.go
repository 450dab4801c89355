package ias

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/sgx"
)

// peerConn is a key-server connection from a peer that sends in and
// then, if endless, whitespace without end. It counts what the server
// reads and keeps what the server writes.
type peerConn struct {
	net.Conn // nil: the key server's handler uses Read and Write only
	in       *bytes.Reader
	endless  bool
	read     int
	out      bytes.Buffer
}

var spaces = bytes.Repeat([]byte{' '}, 32<<10)

func (c *peerConn) Read(p []byte) (int, error) {
	if c.read > cas.MaxConnBytes {
		return 0, errors.New("the server read past MaxConnBytes")
	}
	n, err := c.in.Read(p)
	if n == 0 && c.endless {
		n, err = copy(p, spaces[:min(len(spaces), cas.MaxConnBytes+1-c.read)]), nil
	}
	c.read += n
	return n, err
}

func (c *peerConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// serveBytes runs one key-server connection whose peer sends in and
// returns the messages the server wrote, failing unless each decodes, is
// a confirmation or keys, and comes in the flow's order: at most one
// confirmation, a refusal saying why, and keys only after an accepting
// one.
func serveBytes(t *testing.T, s *Server, in []byte, endless bool) []iasMessage {
	t.Helper()
	conn := &peerConn{in: bytes.NewReader(in), endless: endless}
	s.handle(conn)
	if conn.read > cas.MaxConnBytes {
		t.Fatalf("the key server read %d bytes of one connection, past MaxConnBytes", conn.read)
	}
	var out []iasMessage
	dec := json.NewDecoder(&conn.out)
	for {
		var m iasMessage
		if err := dec.Decode(&m); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("the key server wrote a message that does not decode: %v", err)
		}
		switch {
		case len(out) == 0 && m.Kind == "confirmation":
			if !m.OK && m.Error == "" {
				t.Fatal("the key server refused a quote without an error")
			}
		case len(out) == 1 && m.Kind == "keys" && out[0].OK:
		default:
			t.Fatalf("message %d of kind %q after %+v", len(out), m.Kind, out)
		}
		out = append(out, m)
	}
}

// FuzzIASProtocol: whatever bytes a peer sends the key server, it
// answers with messages that decode, or hangs up; it neither panics nor
// reads more than cas.MaxConnBytes of the connection; it releases keys
// only for an EPID quote that verifies under a trusted platform's key;
// and afterwards it attests a well-formed client as before.
func FuzzIASProtocol(f *testing.F) {
	server, enclave := newIAS(f)
	key := enclave.Platform().AttestationKey()
	request := func(q sgx.Quote) []byte {
		b, err := json.Marshal(iasRequest{Quote: q, SenderVTime: 1})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	epid, err := enclave.GetQuote(nil, sgx.QEVendorEPID)
	if err != nil {
		f.Fatal(err)
	}
	dcap, err := enclave.GetQuote(nil, sgx.QEVendorDCAP)
	if err != nil {
		f.Fatal(err)
	}
	forged := epid
	forged.Report.ReportData[0] ^= 1
	wellFormed := request(epid)

	f.Add(wellFormed)
	f.Add(request(dcap))
	f.Add(request(forged))
	f.Add(append(request(epid), '\n', '{'))
	f.Add([]byte(`{"quote":{"QEVendor":"epid","Report":{"Platform":"worker-node"}},"sender_vtime":-5}`))
	f.Add([]byte(`{"quote":{"Signature":"AAAA"}`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := serveBytes(t, server, data, true)
		if len(msgs) == 2 {
			// Keys went out: the first value the peer sent must be a
			// quote this test verifies on its own.
			var req iasRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
				t.Fatalf("keys released for a request that does not decode: %v", err)
			}
			q := req.Quote
			if q.QEVendor != sgx.QEVendorEPID || q.Report.Platform != enclave.Platform().Name() || sgx.VerifyQuote(q, key) != nil {
				t.Fatalf("keys released for a quote that does not verify: %+v", q)
			}
		}
		msgs = serveBytes(t, server, wellFormed, false)
		if len(msgs) != 2 || string(msgs[1].Secrets["model-key"]) != "k" {
			t.Fatalf("after the fuzz input a well-formed attestation got %+v", msgs)
		}
	})
}
