// Package sysiotest puts a host under internal/sysio whose reads are cut
// at points drawn from a seed, so that a test can check that no charge
// follows how the host kernel slices a stream.
package sysiotest

import (
	"math/rand/v2"
	"net"
	"sync"
	"testing"

	"github.com/securetf/securetf/internal/sysio"
)

// Slice makes every socket sysio opens until t's cleanup return each
// Read whole half the time, and otherwise cut short at a point drawn
// from seed. All the sockets draw from one stream, so which read gets
// which cut is the Go scheduler's choice; a charge that depends on the
// slicing still shows.
func Slice(t testing.TB, seed uint64) {
	var mu sync.Mutex
	rng := rand.New(rand.NewPCG(seed, seed))
	limit := func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		if n < 2 || rng.IntN(2) == 0 {
			return n
		}
		return 1 + rng.IntN(n-1)
	}
	dial, listen := sysio.HostDial, sysio.HostListen
	t.Cleanup(func() { sysio.HostDial, sysio.HostListen = dial, listen })
	sysio.HostDial = func(network, addr string) (net.Conn, error) {
		conn, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return slicedConn{conn, limit}, nil
	}
	sysio.HostListen = func(network, addr string) (net.Listener, error) {
		ln, err := listen(network, addr)
		if err != nil {
			return nil, err
		}
		return slicedListener{ln, limit}, nil
	}
}

type slicedConn struct {
	net.Conn
	limit func(n int) int
}

func (c slicedConn) Read(p []byte) (int, error) { return c.Conn.Read(p[:c.limit(len(p))]) }

type slicedListener struct {
	net.Listener
	limit func(n int) int
}

func (l slicedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slicedConn{conn, l.limit}, nil
}
