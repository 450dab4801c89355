package fsapi

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"
)

// Mem is an in-memory FS for tests and for the CAS encrypted store's
// backing buffer. It is safe for concurrent use at the FS level; a single
// File handle must not be used concurrently, matching os.File semantics.
type Mem struct {
	mu    sync.Mutex
	files map[string][]byte
}

var _ FS = (*Mem)(nil)

// NewMem creates an empty in-memory file system.
func NewMem() *Mem {
	return &Mem{files: make(map[string][]byte)}
}

func memClean(name string) string {
	return strings.TrimPrefix(path.Clean("/"+name), "/")
}

// Open implements FS.
func (m *Mem) Open(name string) (File, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return nil, fmt.Errorf("fsapi: open %q: %w", name, ErrNotExist)
	}
	return &memFile{fs: m, name: name}, nil
}

// Create implements FS.
func (m *Mem) Create(name string) (File, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("fsapi: remove %q: %w", name, ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *Mem) Rename(oldName, newName string) error {
	oldName, newName = memClean(oldName), memClean(newName)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("fsapi: rename %q: %w", oldName, ErrNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = data
	return nil
}

// Stat implements FS.
func (m *Mem) Stat(name string) (FileInfo, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("fsapi: stat %q: %w", name, ErrNotExist)
	}
	return FileInfo{Name: name, Size: int64(len(data))}, nil
}

// List implements FS.
func (m *Mem) List(dir string) ([]string, error) {
	dir = memClean(dir)
	prefix := dir
	if prefix != "" {
		prefix += "/"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			rest := strings.TrimPrefix(name, prefix)
			if !strings.Contains(rest, "/") {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS. Directories are implicit in Mem.
func (m *Mem) MkdirAll(string) error { return nil }

type memFile struct {
	fs   *Mem
	name string
	off  int64
}

var _ File = (*memFile)(nil)

func (f *memFile) data() []byte {
	return f.fs.files[f.name]
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.data()
	if f.off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.data()
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.writeAtLocked(p, f.off)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.writeAtLocked(p, off)
	return len(p), nil
}

func (f *memFile) writeAtLocked(p []byte, off int64) {
	data := f.data()
	if need := off + int64(len(p)); need > int64(len(data)) {
		data = extend(data, need)
	}
	copy(data[off:], p)
	f.fs.files[f.name] = data
}

// extend lengthens data to size zero bytes, in its spare capacity or
// in a backing array at least twice as large, so that writing a file in
// pieces copies it a logarithmic number of times and not once a write.
// Reads copy out, so no caller holds the old array.
func extend(data []byte, size int64) []byte {
	n := len(data)
	if size > int64(cap(data)) {
		grown := make([]byte, n, max(size, 2*int64(cap(data))))
		copy(grown, data)
		data = grown
	}
	data = data[:size]
	clear(data[n:]) // a truncated tail may linger in the capacity
	return data
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = int64(len(f.data()))
	default:
		return 0, fmt.Errorf("fsapi: invalid whence %d", whence)
	}
	if base+off < 0 {
		return 0, fmt.Errorf("fsapi: negative seek")
	}
	f.off = base + off
	return f.off, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.data()
	switch {
	case size < int64(len(data)):
		f.fs.files[f.name] = data[:size]
	case size > int64(len(data)):
		f.fs.files[f.name] = extend(data, size)
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.data())), nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Name() string { return f.name }
