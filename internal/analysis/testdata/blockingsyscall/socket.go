// Package serving is a blockingsyscall fixture: SCONE-hosted code
// minting raw conns and blocking on them outside the runtime wrappers.
package serving

import (
	"crypto/tls"
	"net"
)

// Serve accepts on a raw listener: the mint, the accept and the read
// all block outside the sysio wrappers.
func Serve() error {
	ln, err := net.Listen("tcp", ":0") // want "net.Listen mints a raw conn/listener"
	if err != nil {
		return err
	}
	conn, err := ln.Accept() // want "Accept on a raw net.Listener"
	if err != nil {
		return err
	}
	buf := make([]byte, 64)
	_, err = conn.Read(buf) // want "Read on a raw net.Conn"
	return err
}

// DialUpstream mints a raw TLS client conn.
func DialUpstream(addr string, cfg *tls.Config) (*tls.Conn, error) {
	return tls.Dial("tcp", addr, cfg) // want "tls.Dial mints a raw conn/listener"
}

// AcceptWrapped's listener was wrapped by Container.Listen upstream,
// so its Accept is already routed through the runtime.
func AcceptWrapped(ln net.Listener) (net.Conn, error) {
	//securetf:allow blockingsyscall ln comes from Container.Listen, whose sysio wrapper runs Accept outside the ring
	return ln.Accept()
}
