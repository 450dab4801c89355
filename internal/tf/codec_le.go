//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mips64p32le || mipsle || ppc64le || riscv64 || wasm

package tf

import "unsafe"

// This is the module's one use of unsafe (TestUnsafeInOneFile holds it
// there): on a little-endian target a float32 or int32 in memory is
// already its four wire bytes, so the element codec is a copy between
// the tensor's storage and the frame.

// putWords is putWordsLoop as one copy.
func (t *Tensor) putWords(words []byte) { copy(words, t.elemBytes()) }

// setWords is setWordsLoop as one copy.
func (t *Tensor) setWords(words []byte) { copy(t.elemBytes(), words) }

// elemBytes views t's element storage as bytes.
func (t *Tensor) elemBytes() []byte {
	if t.dtype == Int32 {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t.i32))), 4*len(t.i32))
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(t.f32))), 4*len(t.f32))
}
