package fsapi

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// fsFactories enumerates the FS implementations under test so every
// behaviour is verified against both.
func fsFactories(t *testing.T) map[string]func() FS {
	t.Helper()
	return map[string]func() FS{
		"os":  func() FS { return NewOS(t.TempDir()) },
		"mem": func() FS { return NewMem() },
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			data := []byte("hello secure world")
			if err := WriteFile(fsys, "dir/sub/file.bin", data); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(fsys, "dir/sub/file.bin")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("got %q want %q", got, data)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			if _, err := fsys.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("err = %v, want ErrNotExist", err)
			}
			if _, err := fsys.Stat("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("stat err = %v, want ErrNotExist", err)
			}
			if err := fsys.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("remove err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestStatSize(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			if err := WriteFile(fsys, "f", make([]byte, 1234)); err != nil {
				t.Fatal(err)
			}
			fi, err := fsys.Stat("f")
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size != 1234 {
				t.Fatalf("Size = %d, want 1234", fi.Size)
			}
		})
	}
}

func TestRename(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			if err := WriteFile(fsys, "a", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Rename("a", "b/c"); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Stat("a"); !errors.Is(err, ErrNotExist) {
				t.Fatal("old name still exists")
			}
			got, err := ReadFile(fsys, "b/c")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "x" {
				t.Fatalf("content after rename = %q", got)
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			if err := WriteFile(fsys, "f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := fsys.Remove("f"); err != nil {
				t.Fatal(err)
			}
			if _, err := fsys.Stat("f"); !errors.Is(err, ErrNotExist) {
				t.Fatal("file still exists after remove")
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			for _, f := range []string{"d/a", "d/b", "d/nested/c", "top"} {
				if err := WriteFile(fsys, f, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			names, err := fsys.List("d")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != "a" || names[1] != "b" {
				t.Fatalf("List(d) = %v, want [a b]", names)
			}
		})
	}
}

func TestReadAtWriteAt(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			f, err := fsys.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("world"), 6); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("hello "), 0); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 5)
			if _, err := f.ReadAt(buf, 6); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "world" {
				t.Fatalf("ReadAt = %q, want world", buf)
			}
			size, err := f.Size()
			if err != nil {
				t.Fatal(err)
			}
			if size != 11 {
				t.Fatalf("Size = %d, want 11", size)
			}
		})
	}
}

func TestSeek(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			f, err := fsys.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Seek(4, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2)
			if _, err := io.ReadFull(f, buf); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "45" {
				t.Fatalf("after seek read %q, want 45", buf)
			}
			if pos, err := f.Seek(-2, io.SeekEnd); err != nil || pos != 8 {
				t.Fatalf("SeekEnd = %d, %v", pos, err)
			}
		})
	}
}

func TestTruncate(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			if err := WriteFile(fsys, "f", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			f, err := fsys.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.Truncate(4); err != nil {
				t.Fatal(err)
			}
			if size, _ := f.Size(); size != 4 {
				t.Fatalf("after shrink Size = %d, want 4", size)
			}
			if err := f.Truncate(8); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			want := []byte{'0', '1', '2', '3', 0, 0, 0, 0}
			if !bytes.Equal(buf, want) {
				t.Fatalf("after grow = %v, want %v", buf, want)
			}
		})
	}
}

func TestOSRejectsEscape(t *testing.T) {
	fsys := NewOS(t.TempDir())
	// A name that climbs out of the root is refused; one with dots
	// inside an element, or a ".." that stays inside, is a name.
	for _, name := range []string{"../escape", "a/../../escape", "/.."} {
		if _, err := fsys.Create(name); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
	for _, name := range []string{"a..b", "...", "d/x/../y"} {
		if err := WriteFile(fsys, name, []byte(name)); err != nil {
			t.Errorf("writing %q: %v", name, err)
		}
	}
	if got, err := ReadFile(fsys, "d/y"); err != nil || string(got) != "d/x/../y" {
		t.Errorf("d/y reads %q, %v", got, err)
	}
}

func TestClean(t *testing.T) {
	for name, want := range map[string]string{
		"a":          "a",
		"./a":        "a",
		"/a/":        "a",
		"a//b":       "a/b",
		"a/./b/../c": "a/c",
		"a..b":       "a..b",
		"":           "",
		"/":          "",
		".":          "",
		"a/..":       "",
	} {
		if got, err := Clean(name); err != nil || got != want {
			t.Errorf("Clean(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, name := range []string{"..", "../a", "/../a", "a/../../b", "./.."} {
		if got, err := Clean(name); err == nil {
			t.Errorf("Clean(%q) = %q, want a refusal", name, got)
		}
	}
}

func TestMemRoundTripProperty(t *testing.T) {
	fsys := NewMem()
	f := func(name string, data []byte) bool {
		if name == "" {
			name = "x"
		}
		if err := WriteFile(fsys, name, data); err != nil {
			return false
		}
		got, err := ReadFile(fsys, name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fsys := mk()
			if err := WriteFile(fsys, "f", []byte("long content here")); err != nil {
				t.Fatal(err)
			}
			if err := WriteFile(fsys, "f", []byte("short")); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(fsys, "f")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "short" {
				t.Fatalf("content = %q, want short", got)
			}
		})
	}
}
