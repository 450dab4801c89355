package fsshield

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
)

// writeStep is one step of a write-path case, applied both to the
// shielded file and to a plain reference buffer.
type writeStep struct {
	reopen   bool  // Close the handle and Open the file again
	truncate int64 // Truncate to this size, when ≥ 0
	off      int64 // else WriteAt data at off
	data     []byte
}

// TestWritePath writes files every way a chunk reaches the host —
// sealed whole at write, or cached and sealed on Close — at both
// protected levels and 64 KiB chunks, and reads each back through a
// fresh Open. A flipped host byte must still fail authentication.
func TestWritePath(t *testing.T) {
	const cs = DefaultChunkSize
	rng := rand.New(rand.NewSource(1))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	write := func(off int64, n int) writeStep { return writeStep{truncate: -1, off: off, data: bytesOf(n)} }
	truncate := func(size int64) writeStep { return writeStep{truncate: size} }
	reopen := writeStep{reopen: true, truncate: -1}
	cases := []struct {
		name  string
		steps []writeStep
	}{
		{"whole chunks", []writeStep{write(0, 3*cs)}},
		{"whole chunks and a tail", []writeStep{write(0, 3*cs+cs/3)}},
		{"unaligned", []writeStep{write(1000, 2*cs+cs/2), write(cs-7, 20)}},
		{"overwrite held chunks", []writeStep{write(0, 3*cs+100), reopen, write(cs, cs), write(2*cs+5, cs), write(4*cs, cs)}},
		{"whole chunks over cached ones", []writeStep{write(0, 100), write(cs+5, 10), write(0, 2*cs)}},
		{"past EOF then whole chunks", []writeStep{write(0, 100), write(2*cs, 2*cs)}},
		{"past EOF of an opened file", []writeStep{write(0, cs+100), reopen, write(3*cs, 2*cs+1)}},
		{"truncate and grow", []writeStep{write(0, 3*cs), truncate(cs + 10), write(2*cs, cs), truncate(5*cs + 3), write(cs+10, 5)}},
		{"grow an opened file", []writeStep{write(0, cs+100), reopen, truncate(3 * cs), write(3*cs, cs)}},
		{"shrink an opened file and rewrite", []writeStep{write(0, 3*cs), reopen, truncate(cs / 2), write(cs, cs), reopen, write(0, 3*cs)}},
	}
	for _, path := range []string{"secret/f", "signed/f"} {
		for _, c := range cases {
			t.Run(path+"/"+c.name, func(t *testing.T) {
				inner := fsapi.NewMem()
				s := newTestShield(t, inner, func(c *Config) { c.ChunkSize = cs })
				f, err := s.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				var ref []byte
				for _, st := range c.steps {
					switch {
					case st.reopen:
						if err := f.Close(); err != nil {
							t.Fatal(err)
						}
						if f, err = s.Open(path); err != nil {
							t.Fatal(err)
						}
					case st.truncate >= 0:
						if err := f.Truncate(st.truncate); err != nil {
							t.Fatal(err)
						}
						ref = append(ref[:min(int64(len(ref)), st.truncate)], make([]byte, max(0, st.truncate-int64(len(ref))))...)
					default:
						if n, err := f.WriteAt(st.data, st.off); err != nil || n != len(st.data) {
							t.Fatalf("WriteAt(%d bytes, %d) = %d, %v", len(st.data), st.off, n, err)
						}
						if end := st.off + int64(len(st.data)); end > int64(len(ref)) {
							ref = append(ref, make([]byte, end-int64(len(ref)))...)
						}
						copy(ref[st.off:], st.data)
					}
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				got, err := fsapi.ReadFile(s, path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("read back %d bytes that differ from the %d written", len(got), len(ref))
				}
				raw, err := fsapi.ReadFile(inner, path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 1
				if err := fsapi.WriteFile(inner, path, raw); err != nil {
					t.Fatal(err)
				}
				if _, err := fsapi.ReadFile(s, path); !errors.Is(err, ErrTampered) {
					t.Fatalf("after a flipped host byte: err = %v, want ErrTampered", err)
				}
			})
		}
	}
}

// TestDroppedUpdateKeepsThePreviousVersion: a handle that Open found
// keeps its writes in enclave memory until Close, so one dropped
// before Close — the process died — leaves the version before it
// readable, including after a later handle closes cleanly.
func TestDroppedUpdateKeepsThePreviousVersion(t *testing.T) {
	const cs = DefaultChunkSize
	for _, path := range []string{"secret/f", "signed/f"} {
		t.Run(path, func(t *testing.T) {
			s := newTestShield(t, fsapi.NewMem(), func(c *Config) { c.ChunkSize = cs })
			v1 := bytes.Repeat([]byte("v1"), 3*cs/2+50)
			if err := fsapi.WriteFile(s, path, v1); err != nil {
				t.Fatal(err)
			}
			f, err := s.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			v2 := bytes.Repeat([]byte("v2"), 3*cs)
			if _, err := f.WriteAt(v2, 0); err != nil { // whole chunks, held and new
				t.Fatal(err)
			}
			// f is dropped here without Close.
			for round := range 2 {
				got, err := fsapi.ReadFile(s, path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, v1) {
					t.Fatalf("round %d: after a dropped update the file reads %d bytes, not the previous version", round, len(got))
				}
				g, err := s.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// sealLog records every chunk the data file of one path is handed.
type sealLog struct {
	fsapi.FS
	path   string
	writes *[]sealedChunk
}

type sealedChunk struct {
	off    int64
	stored []byte
}

func (l sealLog) Create(name string) (fsapi.File, error) { return l.wrap(l.FS.Create(name)) }
func (l sealLog) Open(name string) (fsapi.File, error)   { return l.wrap(l.FS.Open(name)) }

func (l sealLog) wrap(f fsapi.File, err error) (fsapi.File, error) {
	if err != nil || f.Name() != l.path {
		return f, err
	}
	return sealLogFile{File: f, writes: l.writes}, nil
}

type sealLogFile struct {
	fsapi.File
	writes *[]sealedChunk
}

func (f sealLogFile) WriteAt(p []byte, off int64) (int, error) {
	*f.writes = append(*f.writes, sealedChunk{off: off, stored: bytes.Clone(p)})
	return f.File.WriteAt(p, off)
}

// TestNoNonceReuseAfterShrinkGrow: every chunk sealed under one file key
// uses a nonce (its index and write counter) that no other chunk sealed
// under that key used — across shrinks and regrowth, chunks sealed at
// write and on Close, handles that reopen the file, and a created handle
// dropped before Close whose file is then reopened and written.
func TestNoNonceReuseAfterShrinkGrow(t *testing.T) {
	// Rewriting the same plaintext never repeats its ciphertext.
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	payload := bytes.Repeat([]byte("p"), 256)
	write := func() []byte {
		if err := fsapi.WriteFile(s, "secret/f", payload); err != nil {
			t.Fatal(err)
		}
		raw, err := fsapi.ReadFile(inner, "secret/f")
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), raw...)
	}
	first := write()
	second := write()
	if bytes.Equal(first, second) {
		t.Fatal("identical ciphertext for rewritten chunk: nonce reuse")
	}

	// Every sealed chunk of one file, opened under each handle's key.
	const cs = 256
	var writes []sealedChunk
	s = newTestShield(t, sealLog{FS: fsapi.NewMem(), path: "secret/g", writes: &writes})
	var handles []*shieldFile
	step := func(f fsapi.File, err error) *shieldFile {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, f.(*shieldFile))
		return f.(*shieldFile)
	}
	must := func(_ int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte("q"), 4*cs+10)
	f := step(s.Create("secret/g"))
	must(f.WriteAt(data, 0))        // four chunks sealed at write, a tail cached
	must(f.WriteAt(data[:10], 300)) // chunk 1 read back, dirtied
	must(0, f.Truncate(cs/2))       // dropped again
	must(f.WriteAt(data, cs))       // boundary grown, chunks 1–4 sealed at write again
	must(0, f.Close())
	g := step(s.Open("secret/g"))
	must(0, g.Truncate(cs))
	must(g.WriteAt(data[:2*cs], 2*cs)) // a gap and two chunks, all cached
	must(0, g.Close())
	h := step(s.Create("secret/g"))
	must(h.WriteAt(data[:3*cs], 0)) // sealed at write, then dropped before Close
	for range 2 {
		k := step(s.Open("secret/g"))
		must(k.WriteAt(data[:3*cs], 0))
		must(0, k.Close())
	}

	type use struct {
		gen     [16]byte
		index   int64
		counter uint64
	}
	used := make(map[use]bool)
	for _, w := range writes {
		if w.off%(cs+16) != 0 {
			t.Fatalf("chunk written at %d, not at a slot boundary", w.off)
		}
		i := w.off / (cs + 16)
		var found []use
		for _, f := range handles {
			for c := uint64(1); c < 16; c++ {
				if _, err := f.aead.Open(nil, chunkNonce(i, c), w.stored, chunkAAD(f.path, i, c)); err == nil {
					found = append(found, use{f.meta.Generation, i, c})
				}
			}
		}
		if len(found) == 0 {
			t.Fatalf("chunk %d opens under no handle's key", i)
		}
		u := found[0]
		if used[u] {
			t.Fatalf("chunk %d sealed twice with counter %d under one key", i, u.counter)
		}
		used[u] = true
	}
	if len(used) < 15 {
		t.Fatalf("only %d chunks sealed; the sequence no longer exercises what it should", len(used))
	}
}

// refuseMeta is a host that refuses to create metadata files while
// refuse is set.
type refuseMeta struct {
	fsapi.FS
	refuse *bool
}

func (r refuseMeta) Create(name string) (fsapi.File, error) {
	if *r.refuse && strings.HasSuffix(name, metaSuffix) {
		return nil, errors.New("host refuses the metadata")
	}
	return r.FS.Create(name)
}

// TestNoNonceReuseAfterRefusedMetadata: an opened handle whose Close
// cannot write the metadata that records its bumped counters seals
// nothing under them, so the next handle, which bumps the same counters
// again, reuses no (key, nonce).
func TestNoNonceReuseAfterRefusedMetadata(t *testing.T) {
	const cs = 256
	var writes []sealedChunk
	var refuse bool
	s := newTestShield(t, refuseMeta{FS: sealLog{FS: fsapi.NewMem(), path: "secret/f", writes: &writes}, refuse: &refuse})
	first := bytes.Repeat([]byte("0"), cs)
	if err := fsapi.WriteFile(s, "secret/f", first); err != nil {
		t.Fatal(err)
	}
	appendTo := func(data []byte) (*shieldFile, error) {
		f, err := s.Open("secret/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		return f.(*shieldFile), f.Close()
	}
	refuse = true
	if _, err := appendTo(bytes.Repeat([]byte("A"), 20)); err == nil {
		t.Fatal("Close succeeded on a host that refuses the metadata")
	}
	refuse = false
	g, err := appendTo(bytes.Repeat([]byte("B"), 20))
	if err != nil {
		t.Fatal(err)
	}

	used := make(map[[2]uint64]bool)
	for _, w := range writes {
		i := w.off / (cs + 16)
		var found []uint64
		for c := uint64(1); c < 16; c++ {
			if _, err := g.aead.Open(nil, chunkNonce(i, c), w.stored, chunkAAD(g.path, i, c)); err == nil {
				found = append(found, c)
			}
		}
		if len(found) != 1 {
			t.Fatalf("chunk %d opens under %d counters of the file's key, want 1", i, len(found))
		}
		u := [2]uint64{uint64(i), found[0]}
		if used[u] {
			t.Fatalf("chunk %d sealed twice with counter %d under one key", i, found[0])
		}
		used[u] = true
	}
	got, err := fsapi.ReadFile(s, "secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(first, bytes.Repeat([]byte("B"), 20)...); !bytes.Equal(got, want) {
		t.Fatalf("the file reads %q, want the first version with the second append", got)
	}
}

// TestCreatedHandleSealsAtWrite: a created file's whole chunks reach the
// host during the write, before Close, and only its tail is cached.
func TestCreatedHandleSealsAtWrite(t *testing.T) {
	for _, path := range []string{"secret/f", "signed/f"} {
		var writes []sealedChunk
		s := newTestShield(t, sealLog{FS: fsapi.NewMem(), path: path, writes: &writes})
		f, err := s.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 3*256+40)); err != nil {
			t.Fatal(err)
		}
		sf := f.(*shieldFile)
		if len(writes) != 3 || len(sf.cache) != 1 || len(sf.dirty) != 1 {
			t.Fatalf("%s: %d chunks written, %d cached, %d dirty before Close; want 3, 1 and 1", path, len(writes), len(sf.cache), len(sf.dirty))
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if len(writes) != 4 {
			t.Fatalf("%s: %d chunks written after Close, want 4", path, len(writes))
		}
	}
}

// Shield write and read benchmarks at the two file sizes the benchmark
// workloads move through the shield: train-sync's shard-0 snapshot and
// serve-steady's densenet model.
var shieldBenchSizes = []struct {
	name string
	size int
}{
	{"train-sync_snapshot_1.6MB", 1_600_000},
	{"densenet_42MB", 42 << 20},
}

func BenchmarkShieldWriteFile(b *testing.B) {
	for _, bs := range shieldBenchSizes {
		b.Run(bs.name, func(b *testing.B) {
			s := newTestShield(b, fsapi.NewOS(b.TempDir()), func(c *Config) { c.ChunkSize = DefaultChunkSize })
			data := make([]byte, bs.size)
			rand.New(rand.NewSource(1)).Read(data)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := fsapi.WriteFile(s, "secret/f", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkShieldReadFile(b *testing.B) {
	for _, bs := range shieldBenchSizes {
		b.Run(bs.name, func(b *testing.B) {
			s := newTestShield(b, fsapi.NewOS(b.TempDir()), func(c *Config) { c.ChunkSize = DefaultChunkSize })
			data := make([]byte, bs.size)
			rand.New(rand.NewSource(1)).Read(data)
			if err := fsapi.WriteFile(s, "secret/f", data); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				got, err := fsapi.ReadFile(s, "secret/f")
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(data) {
					b.Fatalf("read %d bytes, want %d", len(got), len(data))
				}
			}
		})
	}
}
