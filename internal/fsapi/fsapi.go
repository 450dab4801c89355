// Package fsapi defines the file-system interface that secureTF shields
// and runtimes implement and wrap.
//
// The standard library's io/fs is read-only; the file-system shield needs
// writes, truncation and random access, so we define a minimal writable
// interface here. Implementations: OS (passthrough, rooted at a
// directory), Mem (in-memory, for tests), the syscall-charging view of
// internal/sysio that every runtime's FS returns, and the file-system
// shield.
package fsapi

import (
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// File is an open file handle with random access.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	io.ReaderAt
	io.WriterAt
	// Truncate changes the file size.
	Truncate(size int64) error
	// Size returns the current file size.
	Size() (int64, error)
	// Name returns the path the file was opened with.
	Name() string
}

// FS is a writable file system.
type FS interface {
	// Open opens an existing file for reading and writing.
	Open(name string) (File, error)
	// Create creates (or truncates) a file for reading and writing.
	Create(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename moves a file.
	Rename(oldName, newName string) error
	// Stat returns the size of a file, or an error if it does not exist.
	Stat(name string) (FileInfo, error)
	// List returns the names of files under the given directory prefix.
	List(dir string) ([]string, error)
	// MkdirAll creates a directory and its parents.
	MkdirAll(dir string) error
}

// FileInfo describes a file.
type FileInfo struct {
	Name string
	Size int64
}

// ErrNotExist reports a missing file. Implementations wrap it so callers
// can use errors.Is.
var ErrNotExist = errors.New("fsapi: file does not exist")

// Clean returns the canonical form of a file name: slash-separated,
// relative to the root, with no empty, "." or ".." element and no
// leading or trailing slash ("" names the root itself). Two names that
// clean to one form name one file. A name whose ".." elements climb
// above the root is refused; one that merely contains dots, such as
// "a..b", is an ordinary name.
func Clean(name string) (string, error) {
	c := path.Clean(strings.TrimLeft(name, "/"))
	switch {
	case c == "..", strings.HasPrefix(c, "../"):
		return "", fmt.Errorf("fsapi: path %q escapes the root", name)
	case c == ".":
		return "", nil
	}
	return c, nil
}

// ReadFile reads the entire named file from fs.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("fsapi: stat %q: %w", name, err)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("fsapi: reading %q: %w", name, err)
	}
	return buf, nil
}

// WriteFile writes data to the named file on fs, creating it if needed.
func WriteFile(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("fsapi: writing %q: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fsapi: closing %q: %w", name, err)
	}
	return nil
}
