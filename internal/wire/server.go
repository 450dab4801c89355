// Package wire is the connection substrate every secureTF server sits
// on: the one accept loop with its connection lifecycle (Serve) and the
// one length-prefixed frame codec (WriteFrame/ReadFrame). It imports
// only the standard library, so every layer — CAS, parameter server,
// federated coordinator, serving gateway, router — can use it.
package wire

import (
	"net"
	"sync"
	"time"
)

// Server accepts connections on a listener and runs one handler
// goroutine per connection until Close.
type Server struct {
	ln     net.Listener
	handle func(net.Conn)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg        sync.WaitGroup // accept loop + conn handlers
	closeOnce sync.Once
	closeErr  error
}

// Serve starts accepting on ln, calling handle on its own goroutine for
// every connection; the connection is closed when handle returns. An
// Accept error does not stop the server: a peer that fails a shielded
// listener's handshake, or transient fd exhaustion, costs one retry
// after a short back-off. Only Close ends the loop.
func Serve(ln net.Listener, handle func(net.Conn)) *Server {
	s := &Server{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// Close stops accepting, closes every live connection — so handlers
// parked in blocking reads wake up and an idle peer cannot hang the
// shutdown — and waits for the handlers to return. It is idempotent
// and reports the listener's close error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true // from here on track refuses what Accept still returns
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.closeErr = s.ln.Close()
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		//securetf:allow blockingsyscall every enclave-side listener passed to Serve comes from Container.Listen, whose runtime wrapper routes Accept through Runtime.BlockingSyscall
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			// Back off briefly so a persistent accept error (e.g. fd
			// exhaustion) cannot busy-spin the loop.
			//securetf:allow nowallclock accept-error backoff paces a real goroutine, not accounted work
			time.Sleep(time.Millisecond)
			continue
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers a live connection; it reports false once Close ran,
// so shutdown cannot race a fresh accept.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrack removes and closes a connection.
func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}
