package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// scriptedListener hands out, in order, whatever the test puts on its
// queue: a connection or an Accept error. With late set, the first
// Accept after Close returns that connection — one the kernel accepted
// just as the server shut down.
type scriptedListener struct {
	queue     chan any // net.Conn or error
	late      net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func newScriptedListener() *scriptedListener {
	// The queue is sized to hold a whole script, so tests can fill it
	// before the server starts accepting.
	return &scriptedListener{queue: make(chan any, 4), closed: make(chan struct{})}
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	select {
	case next := <-l.queue:
		if err, ok := next.(error); ok {
			return nil, err
		}
		return next.(net.Conn), nil
	case <-l.closed:
		if conn := l.late; conn != nil {
			l.late = nil
			return conn, nil
		}
		return nil, net.ErrClosed
	}
}

func (l *scriptedListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

// closeWithin fails the test if Close does not return in time: a hang
// here is the defect, not slowness.
func closeWithin(t *testing.T, s *Server, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("Close still blocked after %v", d)
	}
}

// echo answers every byte with itself until the peer goes away.
func echo(conn net.Conn) { io.Copy(conn, conn) }

// roundTrip proves a handler is running on the other end of conn.
func roundTrip(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte{42}); err != nil {
		t.Fatalf("write: %v", err)
	}
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil || b[0] != 42 {
		t.Fatalf("echo = %v, %v", b, err)
	}
}

func TestServer(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Close returns with an idle peer connected", func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s := Serve(ln, echo)
			peer, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			roundTrip(t, peer) // the handler is parked in Read from here on
			closeWithin(t, s, 2*time.Second)
			peer.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := peer.Read(make([]byte, 1)); err == nil {
				t.Fatal("the idle peer's connection survived Close")
			}
		}},
		{"an Accept error does not end the loop", func(t *testing.T) {
			ln := newScriptedListener()
			server, peer := net.Pipe()
			defer peer.Close()
			ln.queue <- errors.New("tls: first record does not look like a TLS handshake")
			ln.queue <- server
			s := Serve(ln, echo)
			roundTrip(t, peer)
			closeWithin(t, s, 2*time.Second)
		}},
		{"Close is idempotent", func(t *testing.T) {
			s := Serve(newScriptedListener(), echo)
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := s.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()
			}
			wg.Wait()
			closeWithin(t, s, 2*time.Second)
		}},
		{"a connection accepted during Close is closed, not leaked", func(t *testing.T) {
			ln := newScriptedListener()
			server, peer := net.Pipe()
			defer peer.Close()
			ln.late = server
			s := Serve(ln, echo)
			closeWithin(t, s, 2*time.Second)
			peer.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := peer.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
				t.Fatalf("read on the late connection = %v, want EOF (closed by the server)", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
