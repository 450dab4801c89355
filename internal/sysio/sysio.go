// Package sysio is the one syscall boundary under the three runtimes.
// SCONE, Graphene and the native baseline differ in what one system
// call costs — a slot on an exit-less ring, an enclave exit and
// re-entry, a kernel crossing — not in which calls a file or a socket
// makes. A runtime states its prices as a Boundary; the file-system and
// socket wrappers that spend them are written once, here.
//
// # File system
//
// Every fsapi.FS and fsapi.File method is exactly one Syscall. A read
// copies what it got into the enclave after the call (CopyIn(n)); a
// write copies its whole buffer out before it (CopyOut(len(p))).
//
// # Sockets
//
// A socket's charge is a function of the bytes it carried, never of how
// the host kernel segmented them or how the Go scheduler interleaved the
// goroutines around it. Each clause has a reason:
//
//   - Read and Accept run inline, never inside Syscall. They park for as
//     long as the peer likes, and SCONE's Syscall occupies a slot of a
//     bounded ring: one parked wait per slot starves every other
//     thread's calls, and deadlocks outright when a server and its
//     client share a runtime.
//   - They charge on completion — nothing while parked, nothing for a
//     zero-byte or failed return. A charge made at call time lands
//     while the previous connection's handler is still advancing the
//     same clock, and Advance(d) then AdvanceTo(s) is max(t+d, s) where
//     the other order is max(t, s)+d: the total would depend on which
//     goroutine ran first.
//   - A Read that delivers n bytes after got charges
//     ceil((got+n)/readQuantum) - ceil(got/readQuantum) submissions and
//     then CopyIn(n). How many Read returns a frame takes is the
//     kernel's choice; how many quanta it spans is not. Short reads
//     inside a quantum are retries on the slot already submitted.
//   - A connection pays for its close when it is opened: Dial and Accept
//     charge two submissions, Close none. Close runs when a handler
//     notices its peer left, which no protocol sequences; the open is
//     ordered by the connection's own first frame.
//   - Write copies out and makes one call per Write: the application
//     chose that slicing, so it is already a function of the bytes.
package sysio

import (
	"net"
	"sync/atomic"

	"github.com/securetf/securetf/internal/fsapi"
)

// Boundary is what crossing from a runtime to its host costs.
type Boundary interface {
	// Syscall charges one system call and runs fn as the host's half
	// of it. fn must not wait on a peer.
	Syscall(fn func())
	// Submit charges one system call whose host half ran, or will run,
	// outside Syscall.
	Submit()
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
	var f fsapi.File
	var err error
	s.b.Syscall(func() { f, err = s.host.Open(name) })
	if err != nil {
		return nil, err
	}
	return &sysFile{b: s.b, inner: f}, nil
}

func (s *sysFS) Create(name string) (fsapi.File, error) {
	var f fsapi.File
	var err error
	s.b.Syscall(func() { f, err = s.host.Create(name) })
	if err != nil {
		return nil, err
	}
	return &sysFile{b: s.b, inner: f}, nil
}

func (s *sysFS) Remove(name string) error {
	var err error
	s.b.Syscall(func() { err = s.host.Remove(name) })
	return err
}

func (s *sysFS) Rename(oldName, newName string) error {
	var err error
	s.b.Syscall(func() { err = s.host.Rename(oldName, newName) })
	return err
}

func (s *sysFS) Stat(name string) (fsapi.FileInfo, error) {
	var fi fsapi.FileInfo
	var err error
	s.b.Syscall(func() { fi, err = s.host.Stat(name) })
	return fi, err
}

func (s *sysFS) List(dir string) ([]string, error) {
	var names []string
	var err error
	s.b.Syscall(func() { names, err = s.host.List(dir) })
	return names, err
}

func (s *sysFS) MkdirAll(dir string) error {
	var err error
	s.b.Syscall(func() { err = s.host.MkdirAll(dir) })
	return err
}

type sysFile struct {
	b     Boundary
	inner fsapi.File
}

func (f *sysFile) Read(p []byte) (int, error) {
	var n int
	var err error
	f.b.Syscall(func() { n, err = f.inner.Read(p) })
	f.b.CopyIn(n)
	return n, err
}

func (f *sysFile) ReadAt(p []byte, off int64) (int, error) {
	var n int
	var err error
	f.b.Syscall(func() { n, err = f.inner.ReadAt(p, off) })
	f.b.CopyIn(n)
	return n, err
}

func (f *sysFile) Write(p []byte) (int, error) {
	var n int
	var err error
	f.b.CopyOut(len(p))
	f.b.Syscall(func() { n, err = f.inner.Write(p) })
	return n, err
}

func (f *sysFile) WriteAt(p []byte, off int64) (int, error) {
	var n int
	var err error
	f.b.CopyOut(len(p))
	f.b.Syscall(func() { n, err = f.inner.WriteAt(p, off) })
	return n, err
}

func (f *sysFile) Seek(off int64, whence int) (int64, error) {
	var pos int64
	var err error
	f.b.Syscall(func() { pos, err = f.inner.Seek(off, whence) })
	return pos, err
}

func (f *sysFile) Truncate(size int64) error {
	var err error
	f.b.Syscall(func() { err = f.inner.Truncate(size) })
	return err
}

func (f *sysFile) Size() (int64, error) {
	var n int64
	var err error
	f.b.Syscall(func() { n, err = f.inner.Size() })
	return n, err
}

func (f *sysFile) Close() error {
	var err error
	f.b.Syscall(func() { err = f.inner.Close() })
	return err
}

func (f *sysFile) Name() string { return f.inner.Name() }

// Dial opens a connection across b.
func Dial(b Boundary, network, addr string) (net.Conn, error) {
	var conn net.Conn
	var err error
	b.Syscall(func() { conn, err = net.Dial(network, addr) })
	if err != nil {
		return nil, err
	}
	b.Submit() // the close, paid now
	return &sysConn{b: b, Conn: conn}, nil
}

// Listen opens a listener across b.
func Listen(b Boundary, network, addr string) (net.Listener, error) {
	var ln net.Listener
	var err error
	b.Syscall(func() { ln, err = net.Listen(network, addr) })
	if err != nil {
		return nil, err
	}
	return &sysListener{b: b, Listener: ln}, nil
}

// readQuantum is the stream length one read submission covers: one TLS
// record, so one submission per full record under the network shield.
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
			c.b.Submit()
		}
		c.b.CopyIn(n)
	}
	return n, err
}

// quanta is the number of read quanta a stream of n bytes has begun.
func quanta(n int64) int64 { return (n + readQuantum - 1) / readQuantum }

func (c *sysConn) Write(p []byte) (int, error) {
	var n int
	var err error
	c.b.CopyOut(len(p))
	c.b.Syscall(func() { n, err = c.Conn.Write(p) })
	return n, err
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
	l.b.Submit() // the accept
	l.b.Submit() // the close, paid now
	return &sysConn{b: l.b, Conn: conn}, nil
}
