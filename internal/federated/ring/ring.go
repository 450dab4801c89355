// Package ring is the arithmetic of secure aggregation's additive rings,
// ℤ/2¹⁶ and ℤ/2⁶⁴, over packed vectors: a []byte holding consecutive
// little-endian ring words, which is at once a masked update's wire
// payload, the coordinator's accumulator and a slice of a pair's PRG key
// stream. Nothing is widened to one machine word per element and no
// mask vector is ever materialised — a key stream is pulled through one
// fixed 4 KiB chunk and folded into the destination in place.
//
// Every sum goes through fold. On amd64 it is SSE2 (fold_amd64.s), 64
// bytes an iteration: PADDW/PSUBW add eight 16-bit ring words at once
// and PADDQ/PSUBQ two 64-bit ones, each wrapping inside its own lane.
// SSE2 is part of the amd64 baseline, so there is no feature check and
// no second path. One assembly call cannot be preempted; it is bounded
// by one vector — a stream chunk, or at most one model for Add, tens of
// microseconds.
//
// Elsewhere, and for the tail under 64 bytes, the kernel is SWAR: a
// 64-bit load carries four ring words ("lanes") at width 2, added with
// the carry out of each lane's top bit suppressed, so 0xffff + 1 wraps
// to 0 inside its lane and never reaches the neighbour. At width 8 a
// load is one lane and the same expression is the machine's own
// wraparound addition. One loop serves both widths, and addition and
// subtraction.
//
// Floats reach ℤ/2¹⁶ through QuantizeInt8, the int8 uplink's fixed-point
// encoding: a signed count of steps per coordinate, clipped to ±127, and
// the float32 residual it leaves. On amd64 with AVX it is one vector
// loop (quantize_amd64.s), eight coordinates an iteration, selected by
// internal/cpu as the GEMM is; elsewhere, and for the tail, it is
// quantizeInt8Go, which the vector loop equals bit for bit. (SSE2
// alone, two float64 lanes, measured 2.4x the scalar loop against AVX's
// 5.5x on a 2-vCPU Xeon: float64 division bounds both.)
//
// The same rings are the share domain of additive-secret-sharing MPC
// (CrypTen, tf-encrypted); the package imports only the standard library
// and internal/cpu, so such a backend can import it without pulling in
// the federated protocol.
package ring

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// KeyStream is a deterministic byte stream: Read fills p with the next
// len(p) bytes and cannot fail. Two parties holding the same key read
// identical bytes however they size their reads. seccrypto.PRG is the
// implementation the federated masks use.
type KeyStream interface {
	Read(p []byte)
}

// chunkSize is how much key stream is held at a time. It is a multiple
// of every ring width and of the 8-byte SWAR word, so lanes never
// straddle two chunks, and small enough to stay in L1 between the
// cipher writing it and the adder reading it.
const chunkSize = 4096

// chunks recycles the stream chunk: it is handed to a KeyStream through
// an interface, so it cannot live on the stack.
var chunks = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// AddStream adds the next len(dst) bytes of ks, read as ring words of
// the given width (2 or 8 bytes), to the packed vector dst in place.
func AddStream(dst []byte, width int, ks KeyStream) { stream(dst, laneTops(len(dst), width), 0, ks) }

// SubStream subtracts the next len(dst) bytes of ks from dst; it undoes
// AddStream over the same stream.
func SubStream(dst []byte, width int, ks KeyStream) {
	stream(dst, laneTops(len(dst), width), ^uint64(0), ks)
}

func stream(dst []byte, top, neg uint64, ks KeyStream) {
	chunk := chunks.Get().(*[chunkSize]byte)
	for len(dst) > 0 {
		part := chunk[:min(len(dst), chunkSize)]
		ks.Read(part)
		fold(dst[:len(part)], part, top, neg)
		dst = dst[len(part):]
	}
	chunks.Put(chunk)
}

// Add adds the packed vector src to dst, ring word by ring word. The
// two must have the same length, a multiple of width.
func Add(dst, src []byte, width int) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("ring: adding %d bytes to %d", len(src), len(dst)))
	}
	fold(dst, src, laneTops(len(dst), width), 0)
}

// laneTops returns the 64-bit word with the top bit of every ring word
// ("lane") of the given width set: four lanes at width 2, one at width
// 8. It panics on a vector of n bytes that is not whole ring words:
// callers size vectors from a validated manifest, so that is a bug, not
// input.
func laneTops(n, width int) uint64 {
	if (width != 2 && width != 8) || n%width != 0 {
		panic(fmt.Sprintf("ring: %d bytes are not whole words of width %d", n, width))
	}
	if width == 2 {
		return 0x8000_8000_8000_8000
	}
	return 1 << 63
}

// addLanes adds two 64-bit words lane by lane: the bits below each
// lane's top bit are summed, which cannot carry out of the lane, and
// the top bits are then restored as a carry-less sum. With one lane
// this is plain 64-bit addition.
func addLanes(a, b, top uint64) uint64 { return ((a &^ top) + (b &^ top)) ^ ((a ^ b) & top) }

// foldSWAR computes dst ± src lane by lane, 32 bytes a step: the kernel
// fold runs where there is no assembly, the tail the assembly leaves,
// and the oracle the assembly is tested against. neg is zero to add and
// all ones to subtract: a − b = ^(^a + b) in any power-of-two ring, and
// NOT acts on every lane at once, so subtraction is the same loop with
// both ends inverted.
func foldSWAR(dst, src []byte, top, neg uint64) {
	for len(dst) >= 32 && len(src) >= 32 {
		d, s := dst[:32:32], src[:32:32]
		a0, b0 := binary.LittleEndian.Uint64(d[0:]), binary.LittleEndian.Uint64(s[0:])
		a1, b1 := binary.LittleEndian.Uint64(d[8:]), binary.LittleEndian.Uint64(s[8:])
		a2, b2 := binary.LittleEndian.Uint64(d[16:]), binary.LittleEndian.Uint64(s[16:])
		a3, b3 := binary.LittleEndian.Uint64(d[24:]), binary.LittleEndian.Uint64(s[24:])
		binary.LittleEndian.PutUint64(d[0:], addLanes(a0^neg, b0, top)^neg)
		binary.LittleEndian.PutUint64(d[8:], addLanes(a1^neg, b1, top)^neg)
		binary.LittleEndian.PutUint64(d[16:], addLanes(a2^neg, b2, top)^neg)
		binary.LittleEndian.PutUint64(d[24:], addLanes(a3^neg, b3, top)^neg)
		dst, src = dst[32:], src[32:]
	}
	// The tail — up to three words of four lanes, the last one possibly
	// short — goes through zero-padded words; the padding lanes compute
	// garbage that is not copied back.
	for len(dst) > 0 {
		var a, b [8]byte
		n := copy(a[:], dst)
		copy(b[:], src)
		sum := addLanes(binary.LittleEndian.Uint64(a[:])^neg, binary.LittleEndian.Uint64(b[:]), top) ^ neg
		binary.LittleEndian.PutUint64(a[:], sum)
		copy(dst, a[:n])
		dst, src = dst[n:], src[n:]
	}
}
