// Package serving is a rawnet fixture: SCONE-hosted code minting raw
// conns outside the runtime.
package serving

import (
	"crypto/tls"
	"net"
)

// Serve accepts on a raw listener. The mint is the finding; Accept and
// Read on what it returned are ordinary calls.
func Serve() error {
	ln, err := net.Listen("tcp", ":0") // want "net.Listen mints a raw conn/listener"
	if err != nil {
		return err
	}
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	buf := make([]byte, 64)
	_, err = conn.Read(buf)
	return err
}

// DialUpstream mints a raw TLS client conn.
func DialUpstream(addr string, cfg *tls.Config) (*tls.Conn, error) {
	return tls.Dial("tcp", addr, cfg) // want "tls.Dial mints a raw conn/listener"
}

// ProbeHost checks that the host's own loopback port answers.
func ProbeHost() error {
	//securetf:allow rawnet a loopback liveness probe carries no enclave data
	conn, err := net.Dial("tcp", "127.0.0.1:9")
	if err != nil {
		return err
	}
	return conn.Close()
}
