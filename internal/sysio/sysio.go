// Package sysio is the one syscall boundary under every runtime, and the
// one place a runtime reaches the host network. SCONE, Graphene and the
// native baselines (internal/core's runtime) differ in what one system
// call costs — a request on an exit-less ring, an enclave exit and
// re-entry, a kernel crossing — not in which calls a file or a socket
// makes. A runtime states its prices as a Boundary; the file-system and
// socket wrappers that spend them are written once, here.
//
// Every call is inline: a wrapper charges, then makes the host call on
// the calling goroutine. What a call costs is a virtual-clock charge;
// no goroutine stands in for the host thread that would serve it.
//
// # File system
//
// Every fsapi.FS and fsapi.File method is exactly one Syscall. A read
// copies what it got into the enclave after the call (CopyIn(n)); a
// write copies its whole buffer out before it (CopyOut(len(p))).
//
// # Sockets
//
// Every socket is opened on HostDial or HostListen. A charged socket
// (Dial, Listen) is an enclave's. Its charge is a function of the bytes
// it carried, never of how the host kernel segmented them or how the Go
// scheduler interleaved the goroutines around it. Each clause has a
// reason:
//
//   - Read and Accept charge on completion — nothing while parked,
//     nothing for a zero-byte or failed return. They park for as long
//     as the peer likes, and a charge made at call time lands while the
//     previous connection's handler is still advancing the same clock:
//     Advance(d) then AdvanceTo(s) is max(t+d, s) where the other order
//     is max(t, s)+d, so the total would depend on which goroutine ran
//     first.
//   - A Read that delivers n bytes after got charges
//     ceil((got+n)/readQuantum) - ceil(got/readQuantum) calls and then
//     CopyIn(n). How many Read returns a frame takes is the kernel's
//     choice; how many quanta it spans is not. Short reads inside a
//     quantum are retries on the call already charged.
//   - A connection pays for its close when it is opened: Dial and Accept
//     charge two calls, Close none. Close runs when a handler notices
//     its peer left, which no protocol sequences; the open is ordered by
//     the connection's own first frame.
//   - Write copies out and makes one call per Write: the application
//     chose that slicing, so it is already a function of the bytes.
//
// A bare socket (DialBare, ListenBare) is a native baseline's. It
// charges one Syscall when it is opened and nothing after: no accept,
// read, write or close, and no byte. So it too is a function of the
// bytes, trivially.
package sysio

import (
	"net"
	"sync/atomic"

	"github.com/securetf/securetf/internal/fsapi"
)

// Boundary is what crossing from a runtime to its host costs. A wrapper
// charges through it and then makes the host call itself.
type Boundary interface {
	// Syscall charges one system call.
	Syscall()
	// CopyIn charges moving n bytes of a call's result into the runtime.
	CopyIn(n int)
	// CopyOut charges moving n bytes of a call's argument out of it.
	CopyOut(n int)
}

// NewFS returns host as seen across b. Contents are not protected;
// layer a file-system shield on top for that.
func NewFS(b Boundary, host fsapi.FS) fsapi.FS {
	return &sysFS{b: b, host: host}
}

type sysFS struct {
	b    Boundary
	host fsapi.FS
}

func (s *sysFS) Open(name string) (fsapi.File, error) {
	s.b.Syscall()
	f, err := s.host.Open(name)
	if err != nil {
		return nil, err
	}
	return &sysFile{b: s.b, inner: f}, nil
}

func (s *sysFS) Create(name string) (fsapi.File, error) {
	s.b.Syscall()
	f, err := s.host.Create(name)
	if err != nil {
		return nil, err
	}
	return &sysFile{b: s.b, inner: f}, nil
}

func (s *sysFS) Remove(name string) error {
	s.b.Syscall()
	return s.host.Remove(name)
}

func (s *sysFS) Rename(oldName, newName string) error {
	s.b.Syscall()
	return s.host.Rename(oldName, newName)
}

func (s *sysFS) Stat(name string) (fsapi.FileInfo, error) {
	s.b.Syscall()
	return s.host.Stat(name)
}

func (s *sysFS) List(dir string) ([]string, error) {
	s.b.Syscall()
	return s.host.List(dir)
}

func (s *sysFS) MkdirAll(dir string) error {
	s.b.Syscall()
	return s.host.MkdirAll(dir)
}

type sysFile struct {
	b     Boundary
	inner fsapi.File
}

func (f *sysFile) Read(p []byte) (int, error) {
	f.b.Syscall()
	n, err := f.inner.Read(p)
	f.b.CopyIn(n)
	return n, err
}

func (f *sysFile) ReadAt(p []byte, off int64) (int, error) {
	f.b.Syscall()
	n, err := f.inner.ReadAt(p, off)
	f.b.CopyIn(n)
	return n, err
}

func (f *sysFile) Write(p []byte) (int, error) {
	f.b.CopyOut(len(p))
	f.b.Syscall()
	return f.inner.Write(p)
}

func (f *sysFile) WriteAt(p []byte, off int64) (int, error) {
	f.b.CopyOut(len(p))
	f.b.Syscall()
	return f.inner.WriteAt(p, off)
}

func (f *sysFile) Seek(off int64, whence int) (int64, error) {
	f.b.Syscall()
	return f.inner.Seek(off, whence)
}

func (f *sysFile) Truncate(size int64) error {
	f.b.Syscall()
	return f.inner.Truncate(size)
}

func (f *sysFile) Size() (int64, error) {
	f.b.Syscall()
	return f.inner.Size()
}

func (f *sysFile) Close() error {
	f.b.Syscall()
	return f.inner.Close()
}

func (f *sysFile) Name() string { return f.inner.Name() }

// HostDial and HostListen are the host network. Only a test swaps them
// (sysiotest), to slice the host's reads.
var (
	HostDial   = net.Dial
	HostListen = net.Listen
)

// Dial opens a connection across b.
func Dial(b Boundary, network, addr string) (net.Conn, error) {
	b.Syscall()
	conn, err := HostDial(network, addr)
	if err != nil {
		return nil, err
	}
	b.Syscall() // the close, paid now
	return &sysConn{b: b, Conn: conn}, nil
}

// Listen opens a listener across b.
func Listen(b Boundary, network, addr string) (net.Listener, error) {
	b.Syscall()
	ln, err := HostListen(network, addr)
	if err != nil {
		return nil, err
	}
	return &sysListener{b: b, Listener: ln}, nil
}

// DialBare opens a bare connection: one Syscall, and nothing after.
func DialBare(b Boundary, network, addr string) (net.Conn, error) {
	b.Syscall()
	return HostDial(network, addr)
}

// ListenBare opens a bare listener: one Syscall, and nothing after.
func ListenBare(b Boundary, network, addr string) (net.Listener, error) {
	b.Syscall()
	return HostListen(network, addr)
}

// readQuantum is the stream length one read call covers: one TLS
// record, so one call per full record under the network shield.
const readQuantum = 16 << 10

// sysConn charges a connection by the package comment's socket rule.
// Close is the embedded Conn's: it was paid for at the open.
type sysConn struct {
	b Boundary
	net.Conn
	got atomic.Int64 // bytes Read has delivered
}

func (c *sysConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		end := c.got.Add(int64(n))
		for i := quanta(end) - quanta(end-int64(n)); i > 0; i-- {
			c.b.Syscall()
		}
		c.b.CopyIn(n)
	}
	return n, err
}

// quanta is the number of read quanta a stream of n bytes has begun.
func quanta(n int64) int64 { return (n + readQuantum - 1) / readQuantum }

func (c *sysConn) Write(p []byte) (int, error) {
	c.b.CopyOut(len(p))
	c.b.Syscall()
	return c.Conn.Write(p)
}

type sysListener struct {
	b Boundary
	net.Listener
}

func (l *sysListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.b.Syscall() // the accept
	l.b.Syscall() // the close, paid now
	return &sysConn{b: l.b, Conn: conn}, nil
}
