package sysio

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
)

// charges is what a fakeBoundary was asked for: each call in order, and
// the totals a slicing-independent rule must keep fixed.
type charges struct {
	log               []string
	syscalls, in, out int
}

type fakeBoundary struct {
	mu sync.Mutex
	charges
}

func (b *fakeBoundary) Syscall() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log = append(b.log, "syscall")
	b.syscalls++
}

func (b *fakeBoundary) CopyIn(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log = append(b.log, fmt.Sprint("in:", n))
	b.in += n
}

func (b *fakeBoundary) CopyOut(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log = append(b.log, fmt.Sprint("out:", n))
	b.out += n
}

// take returns the charges since the last take.
func (b *fakeBoundary) take() charges {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.charges
	b.charges = charges{}
	return c
}

func TestFSContract(t *testing.T) {
	b := &fakeBoundary{}
	fsys := NewFS(b, fsapi.NewMem())
	var f fsapi.File
	buf := make([]byte, 8)
	one := []string{"syscall"}
	steps := []struct {
		name string
		call func() error
		want []string
	}{
		{"MkdirAll", func() error { return fsys.MkdirAll("d") }, one},
		{"Create", func() (err error) { f, err = fsys.Create("d/a"); return }, one},
		{"Write", func() error { _, err := f.Write([]byte("hello")); return err }, []string{"out:5", "syscall"}},
		{"WriteAt", func() error { _, err := f.WriteAt([]byte("HE"), 0); return err }, []string{"out:2", "syscall"}},
		{"Seek", func() error { _, err := f.Seek(0, io.SeekStart); return err }, one},
		{"Read", func() error { _, err := f.Read(buf); return err }, []string{"syscall", "in:5"}},
		{"Read at EOF", func() error { _, err := f.Read(buf); return ignore(err, io.EOF) }, []string{"syscall", "in:0"}},
		{"ReadAt", func() error { _, err := f.ReadAt(buf[:3], 1); return err }, []string{"syscall", "in:3"}},
		{"Truncate", func() error { return f.Truncate(2) }, one},
		{"Size", func() error { _, err := f.Size(); return err }, one},
		{"Name", func() error { _ = f.Name(); return nil }, nil},
		{"Close", func() error { return f.Close() }, one},
		{"Open", func() (err error) { f, err = fsys.Open("d/a"); return }, one},
		{"Open missing", func() error { _, err := fsys.Open("d/none"); return ignore(err, fsapi.ErrNotExist) }, one},
		{"Stat", func() error { _, err := fsys.Stat("d/a"); return err }, one},
		{"List", func() error { _, err := fsys.List("d"); return err }, one},
		{"Rename", func() error { return fsys.Rename("d/a", "d/b") }, one},
		{"Remove", func() error { return fsys.Remove("d/b") }, one},
	}
	for _, s := range steps {
		if err := s.call(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := b.take().log; !reflect.DeepEqual(got, s.want) {
			t.Errorf("%s charged %v, want %v", s.name, got, s.want)
		}
	}
}

// ignore drops the one error a step expects.
func ignore(err, want error) error {
	if errors.Is(err, want) {
		return nil
	}
	return fmt.Errorf("got error %v, want %v", err, want)
}

func TestFSConformance(t *testing.T) {
	fstest.Conformance(t, NewFS(&fakeBoundary{}, fsapi.NewMem()))
}

// slicedConn delivers a stream at most slice bytes per Read, the way a
// kernel might, and then io.EOF.
type slicedConn struct {
	net.Conn
	stream []byte
	slice  int
}

func (c *slicedConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.slice)], c.stream)
	c.stream = c.stream[n:]
	return n, nil
}

func TestReadChargeIgnoresSlicing(t *testing.T) {
	const size = 100 << 10
	for _, slice := range []int{1, 1 << 10, readQuantum + 1, size} {
		b := &fakeBoundary{}
		conn := &sysConn{b: b, Conn: &slicedConn{stream: make([]byte, size), slice: slice}}
		// The buffer never limits a Read, so the script alone slices.
		buf, total := make([]byte, size), 0
		for {
			n, err := conn.Read(buf)
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("slice %d: %v", slice, err)
			}
		}
		got := b.take()
		if total != size || got.syscalls != 7 || got.in != size || got.out != 0 {
			t.Errorf("slice %d: read %d bytes for %d syscalls, %d bytes in, %d bytes out; want %d, 7, %d, 0 for every slicing",
				slice, total, got.syscalls, got.in, got.out, size, size)
		}
	}
}

func TestEOFReadChargesNothing(t *testing.T) {
	b := &fakeBoundary{}
	conn := &sysConn{b: b, Conn: &slicedConn{}}
	if n, err := conn.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if got := b.take().log; got != nil {
		t.Fatalf("a (0, io.EOF) read charged %v", got)
	}
}

// parkedConn and parkedListener announce that the wait has begun and
// then hold it until released, as a socket with no peer does.
type parkedConn struct {
	net.Conn
	entered, release chan struct{}
}

func (c *parkedConn) Read(p []byte) (int, error) {
	close(c.entered)
	<-c.release
	return copy(p, "x"), nil
}

type parkedListener struct {
	net.Listener
	entered, release chan struct{}
	conn             net.Conn // nil: Accept fails, as on a closed listener
}

func (l *parkedListener) Accept() (net.Conn, error) {
	close(l.entered)
	<-l.release
	if l.conn == nil {
		return nil, net.ErrClosed
	}
	return l.conn, nil
}

func TestParkedReadChargesOnCompletion(t *testing.T) {
	b := &fakeBoundary{}
	inner := &parkedConn{entered: make(chan struct{}), release: make(chan struct{})}
	conn := &sysConn{b: b, Conn: inner}
	done := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 8))
		done <- err
	}()
	<-inner.entered
	if got := b.take().log; got != nil {
		t.Fatalf("a parked Read charged %v", got)
	}
	close(inner.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, want := b.take().log, []string{"syscall", "in:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the completed Read charged %v, want %v", got, want)
	}
}

func TestParkedAcceptChargesOnCompletion(t *testing.T) {
	for _, tc := range []struct {
		name string
		conn net.Conn
		want []string
	}{
		{"client arrives", &slicedConn{}, []string{"syscall", "syscall"}},
		{"listener closed", nil, nil},
	} {
		b := &fakeBoundary{}
		inner := &parkedListener{entered: make(chan struct{}), release: make(chan struct{}), conn: tc.conn}
		ln := &sysListener{b: b, Listener: inner}
		done := make(chan error, 1)
		go func() {
			_, err := ln.Accept()
			done <- err
		}()
		<-inner.entered
		if got := b.take().log; got != nil {
			t.Fatalf("%s: a parked Accept charged %v", tc.name, got)
		}
		close(inner.release)
		if err := <-done; (err != nil) != (tc.conn == nil) {
			t.Fatalf("%s: Accept error %v", tc.name, err)
		}
		if got := b.take().log; !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: Accept charged %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSocketLifetimeCharges drives real sockets: a connection is paid
// for in full when it is opened, a Write is one call after its copy
// out, and Close is free.
func TestSocketLifetimeCharges(t *testing.T) {
	srv, cli := &fakeBoundary{}, &fakeBoundary{}
	ln, err := Listen(srv, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if got, want := srv.take().log, []string{"syscall"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Listen charged %v, want %v", got, want)
	}
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		_, err = io.Copy(conn, conn)
		conn.Close()
		echoed <- err
	}()

	conn, err := Dial(cli, "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cli.take().log, []string{"syscall", "syscall"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Dial charged %v, want %v", got, want)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got, want := cli.take().log, []string{"out:4", "syscall"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Write charged %v, want %v", got, want)
	}
	if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if got := cli.take(); got.syscalls != 1 || got.in != 4 || got.out != 0 {
		t.Fatalf("reading 4 bytes charged %v", got.log)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cli.take().log; got != nil {
		t.Fatalf("Close charged %v", got)
	}
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	// accept + prepaid close, one read quantum, one echoing write.
	if got := srv.take(); got.syscalls != 4 || got.in != 4 || got.out != 4 {
		t.Fatalf("server charged %v", got.log)
	}

	if _, err := Dial(cli, "tcp", "127.0.0.1:0"); err == nil {
		t.Fatal("dialling port 0 succeeded")
	}
	if got, want := cli.take().log, []string{"syscall"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a refused Dial charged %v, want %v", got, want)
	}
}
