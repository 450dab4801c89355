package fsshield

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
)

// The file operations FuzzNoNonceReuse draws, one byte each (mod 6);
// a write takes a u16 length and a u16 offset after it, a truncate a
// u16 size, each mod 1536 (six chunks of newTestShield's 256 bytes).
const (
	fuzzCreate byte = iota
	fuzzOpen
	fuzzWriteAt
	fuzzTruncate
	fuzzClose
	fuzzDrop // forget the handle without Close
)

// fuzzOps encodes a sequence of operations: each is its byte and then
// its arguments.
func fuzzOps(ops ...[]int) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, byte(op[0]))
		for _, arg := range op[1:] {
			out = binary.LittleEndian.AppendUint16(out, uint16(arg))
		}
	}
	return out
}

// plannedHost is a host that refuses what its plan says: the k-th
// Create, WriteAt, Write, Truncate or Rename it is asked for, on any
// file, fails when the plan's k-th byte is a multiple of five. Past the
// plan's end every call passes.
type plannedHost struct {
	fsapi.FS
	plan  []byte
	calls *int
}

var errRefused = errors.New("the host refuses")

func (h plannedHost) refuse() bool {
	k := *h.calls
	*h.calls++
	return k < len(h.plan) && h.plan[k]%5 == 0
}

func (h plannedHost) Create(name string) (fsapi.File, error) {
	if h.refuse() {
		return nil, errRefused
	}
	return h.wrap(h.FS.Create(name))
}

func (h plannedHost) Open(name string) (fsapi.File, error) { return h.wrap(h.FS.Open(name)) }

func (h plannedHost) Rename(oldName, newName string) error {
	if h.refuse() {
		return errRefused
	}
	return h.FS.Rename(oldName, newName)
}

func (h plannedHost) wrap(f fsapi.File, err error) (fsapi.File, error) {
	if err != nil {
		return nil, err
	}
	return plannedFile{f, h}, nil
}

type plannedFile struct {
	fsapi.File
	host plannedHost
}

func (f plannedFile) WriteAt(p []byte, off int64) (int, error) {
	if f.host.refuse() {
		return 0, errRefused
	}
	return f.File.WriteAt(p, off)
}

func (f plannedFile) Write(p []byte) (int, error) {
	if f.host.refuse() {
		return 0, errRefused
	}
	return f.File.Write(p)
}

func (f plannedFile) Truncate(size int64) error {
	if f.host.refuse() {
		return errRefused
	}
	return f.File.Truncate(size)
}

// FuzzNoNonceReuse drives one encrypted path through up to 30 file
// operations — create, open, write at an offset, truncate, close, drop a
// handle — against a host that refuses the calls its plan names. The
// oracle: over every chunk the host received, no (generation, index,
// counter) sealed two different ciphertexts. The seeds are the
// sequences of TestNoNonceReuseAfterShrinkGrow and
// TestNoNonceReuseAfterRefusedMetadata, and the target's own find.
func FuzzNoNonceReuse(f *testing.F) {
	f.Add(fuzzOps(
		[]int{int(fuzzCreate)}, []int{int(fuzzWriteAt), 256, 0}, []int{int(fuzzClose)},
		[]int{int(fuzzCreate)}, []int{int(fuzzWriteAt), 256, 0}, []int{int(fuzzClose)},
		[]int{int(fuzzCreate)}, []int{int(fuzzWriteAt), 4*256 + 10, 0}, []int{int(fuzzWriteAt), 10, 300},
		[]int{int(fuzzTruncate), 128}, []int{int(fuzzWriteAt), 4*256 + 10, 256}, []int{int(fuzzClose)},
		[]int{int(fuzzOpen)}, []int{int(fuzzTruncate), 256}, []int{int(fuzzWriteAt), 512, 512}, []int{int(fuzzClose)},
		[]int{int(fuzzCreate)}, []int{int(fuzzWriteAt), 768, 0}, []int{int(fuzzDrop)},
		[]int{int(fuzzOpen)}, []int{int(fuzzWriteAt), 768, 0}, []int{int(fuzzClose)},
		[]int{int(fuzzOpen)}, []int{int(fuzzWriteAt), 768, 0}, []int{int(fuzzClose)},
	), []byte(nil))
	// The ninth host call is the metadata Create of the first append's
	// Close.
	f.Add(fuzzOps(
		[]int{int(fuzzCreate)}, []int{int(fuzzWriteAt), 256, 0}, []int{int(fuzzClose)},
		[]int{int(fuzzOpen)}, []int{int(fuzzWriteAt), 20, 256}, []int{int(fuzzClose)},
		[]int{int(fuzzOpen)}, []int{int(fuzzWriteAt), 20, 256}, []int{int(fuzzClose)},
	), []byte{1, 1, 1, 1, 1, 1, 1, 1, 0})
	// What the target found, minimized, in 21 s against a flush that
	// sealed the dirty chunks before the metadata recording their
	// counters was on the host: chunk 0 sealed twice with counter 1.
	f.Add([]byte("00120000X120000X"), []byte("0000000002"))

	f.Fuzz(func(t *testing.T, ops, plan []byte) {
		const path = "secret/f"
		var writes []sealedChunk
		s := newTestShield(t, plannedHost{FS: sealLog{FS: fsapi.NewMem(), path: path, writes: &writes}, plan: plan, calls: new(int)})
		arg := func() int64 {
			var b [2]byte
			ops = ops[copy(b[:], ops):]
			return int64(binary.LittleEndian.Uint16(b[:]) % 1536)
		}
		var handles []*shieldFile
		var cur *shieldFile
		for step := 0; step < 30 && len(ops) > 0; step++ {
			op := ops[0] % 6
			ops = ops[1:]
			switch {
			case op == fuzzCreate || op == fuzzOpen:
				open := s.Open
				if op == fuzzCreate {
					open = s.Create
				}
				cur = nil
				if file, err := open(path); err == nil {
					cur = file.(*shieldFile)
					handles = append(handles, cur)
				}
			case op == fuzzWriteAt:
				n, off := arg(), arg()
				if cur != nil {
					cur.WriteAt(bytes.Repeat([]byte{byte(step + 1)}, int(n)), off)
				}
			case op == fuzzTruncate:
				size := arg()
				if cur != nil {
					cur.Truncate(size)
				}
			case cur != nil && op == fuzzClose:
				cur.Close()
				cur = nil
			case op == fuzzDrop:
				cur = nil
			}
		}

		type use struct {
			gen     [16]byte
			index   int64
			counter uint64
		}
		sealed := make(map[use][]byte)
		for _, w := range writes {
			i := w.off / (256 + seccrypto.Overhead)
			for _, h := range handles {
				if i >= int64(len(h.meta.Counters)) {
					continue
				}
				for c := uint64(1); c <= h.meta.Counters[i]; c++ {
					if _, err := h.aead.Open(nil, chunkNonce(i, c), w.stored, chunkAAD(path, i, c)); err != nil {
						continue
					}
					u := use{h.meta.Generation, i, c}
					if was, ok := sealed[u]; ok && !bytes.Equal(was, w.stored) {
						t.Fatalf("chunk %d sealed twice under one generation with counter %d", i, c)
					}
					sealed[u] = w.stored
				}
			}
		}
	})
}
