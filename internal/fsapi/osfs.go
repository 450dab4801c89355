package fsapi

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// OS is an FS rooted at a host directory. All names are interpreted
// relative to the root, as Clean makes them; a name that climbs out of
// the root with ".." is rejected.
type OS struct {
	root string
}

var _ FS = (*OS)(nil)

// NewOS creates an OS file system rooted at dir.
func NewOS(dir string) *OS {
	return &OS{root: dir}
}

func (o *OS) resolve(name string) (string, error) {
	clean, err := Clean(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(o.root, filepath.FromSlash(clean)), nil
}

// Open implements FS.
func (o *OS) Open(name string) (File, error) {
	p, err := o.resolve(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("fsapi: open %q: %w", name, ErrNotExist)
		}
		return nil, fmt.Errorf("fsapi: open %q: %w", name, err)
	}
	return &osFile{f: f, name: name}, nil
}

// Create implements FS.
func (o *OS) Create(name string) (File, error) {
	p, err := o.resolve(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, fmt.Errorf("fsapi: create %q: %w", name, err)
	}
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fsapi: create %q: %w", name, err)
	}
	return &osFile{f: f, name: name}, nil
}

// Remove implements FS.
func (o *OS) Remove(name string) error {
	p, err := o.resolve(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("fsapi: remove %q: %w", name, ErrNotExist)
		}
		return fmt.Errorf("fsapi: remove %q: %w", name, err)
	}
	return nil
}

// Rename implements FS.
func (o *OS) Rename(oldName, newName string) error {
	po, err := o.resolve(oldName)
	if err != nil {
		return err
	}
	pn, err := o.resolve(newName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(pn), 0o755); err != nil {
		return fmt.Errorf("fsapi: rename %q: %w", newName, err)
	}
	if err := os.Rename(po, pn); err != nil {
		return fmt.Errorf("fsapi: rename %q -> %q: %w", oldName, newName, err)
	}
	return nil
}

// Stat implements FS.
func (o *OS) Stat(name string) (FileInfo, error) {
	p, err := o.resolve(name)
	if err != nil {
		return FileInfo{}, err
	}
	st, err := os.Stat(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return FileInfo{}, fmt.Errorf("fsapi: stat %q: %w", name, ErrNotExist)
		}
		return FileInfo{}, fmt.Errorf("fsapi: stat %q: %w", name, err)
	}
	return FileInfo{Name: name, Size: st.Size()}, nil
}

// List implements FS.
func (o *OS) List(dir string) ([]string, error) {
	p, err := o.resolve(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("fsapi: list %q: %w", dir, ErrNotExist)
		}
		return nil, fmt.Errorf("fsapi: list %q: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// MkdirAll implements FS.
func (o *OS) MkdirAll(dir string) error {
	p, err := o.resolve(dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(p, 0o755); err != nil {
		return fmt.Errorf("fsapi: mkdir %q: %w", dir, err)
	}
	return nil
}

type osFile struct {
	f    *os.File
	name string
}

var _ File = (*osFile)(nil)

func (f *osFile) Read(p []byte) (int, error)                { return f.f.Read(p) }
func (f *osFile) Write(p []byte) (int, error)               { return f.f.Write(p) }
func (f *osFile) Close() error                              { return f.f.Close() }
func (f *osFile) Seek(off int64, whence int) (int64, error) { return f.f.Seek(off, whence) }
func (f *osFile) ReadAt(p []byte, off int64) (int, error)   { return f.f.ReadAt(p, off) }
func (f *osFile) WriteAt(p []byte, off int64) (int, error)  { return f.f.WriteAt(p, off) }
func (f *osFile) Truncate(size int64) error                 { return f.f.Truncate(size) }
func (f *osFile) Name() string                              { return f.name }

func (f *osFile) Size() (int64, error) {
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
