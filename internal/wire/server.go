// Package wire is the connection substrate every secureTF server sits
// on: the one accept loop with its connection lifecycle (Serve), the
// one length-prefixed frame codec (SendFrame/ReadFrame) and the one
// record codec for what is inside a frame or a file (Writer/Reader). It
// imports only the standard library, so every layer — CAS, parameter
// server, federated coordinator, serving gateway, router, the tf and
// tflite loaders — can use it.
//
// # Records
//
// Every byte that crosses the enclave boundary is hostile, so every
// variable-length format in the module — dist and federated messages,
// dist gradient blobs, serving requests and responses, the router
// handshake, tensors, graphs, checkpoints, Lite models — is built from
// the same few records, and one Reader is the only code that turns
// their bytes into lengths:
//
//   - Integers are fixed-width and little-endian (U8, U16, U32, U64); a
//     bool is one byte.
//   - A string or byte blob is a u32 length and then the bytes (Str,
//     Bytes). The router handshake alone uses u16 lengths and counts
//     (Str16, Count16).
//   - A table is a u32 count and then the records. The count is read
//     with Count(minRecord), never U32: it is returned only if the rest
//     of the payload can hold that many records of the smallest possible
//     encoding, so what a decoder allocates or loops over is bounded by
//     the bytes it was actually given. securetf-vet's wirealloc analyzer
//     treats U32 and friends as tainted and Count as clean.
//   - A list of ints (a shape, an index list) is a table of 64-bit
//     two's-complement words (Ints).
//   - Byte slices the Reader returns are views of the payload, not
//     copies: a decoder that keeps one keeps the frame alive, and one
//     that must outlive a reused buffer clones it.
//   - The Reader's error is sticky and exhausts it, so a decoder reads a
//     run of fields and checks Err (or Done, when nothing may follow)
//     once.
//
// Fixed-offset layouts with no variable-length part (fsshield block
// metadata, CAS store records, the federated 6-byte update header)
// index their bytes directly.
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
