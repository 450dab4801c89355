package dist

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/wire"
)

// CompressionKind selects the gradient codec a training cluster runs on
// its push path.
type CompressionKind uint8

const (
	// CompressNone pushes raw float32 gradients — bit-for-bit today's
	// wire format. This is the zero value, so existing configurations
	// keep their exact behavior.
	CompressNone CompressionKind = iota
	// CompressInt8 quantizes each gradient tensor to int8 with one
	// symmetric per-tensor scale (~4× fewer wire bytes). Rounding error
	// is kept in a worker-side error-feedback residual and re-added to
	// the next step's gradient, so no mass is lost over time.
	CompressInt8
	// CompressTopK sparsifies each gradient tensor to the top fraction
	// f of entries by magnitude, sent as index+value pairs. Dropped
	// entries accumulate in the worker-side residual until their
	// magnitude wins a later round — the classic error-feedback top-k.
	CompressTopK
)

// Compression is a training cluster's gradient codec policy. Like
// ConsistencyPolicy it is negotiated through the hello/manifest
// handshake: the worker states the codec it will push with, the
// parameter-server shard states the codec it decodes, and a mismatch
// fails the worker at construction — a mixed-codec cluster would
// corrupt gradients silently, so it must not connect at all.
type Compression struct {
	Kind CompressionKind
	// Fraction is the top-k fraction f ∈ (0, 1] of entries kept per
	// tensor (CompressTopK only; at least one entry is always sent).
	Fraction float64
}

// NoCompression is the raw float32 push path — today's default.
func NoCompression() Compression { return Compression{Kind: CompressNone} }

// Int8Compression is the per-tensor symmetric int8 quantizer.
func Int8Compression() Compression { return Compression{Kind: CompressInt8} }

// TopKCompression keeps the top fraction f of gradient entries by
// magnitude per tensor.
func TopKCompression(f float64) Compression {
	return Compression{Kind: CompressTopK, Fraction: f}
}

// Canonical validates the policy and returns it in the form equality
// comparisons (the handshake, tests) are defined on: only top-k carries
// a fraction.
func (c Compression) Canonical() (Compression, error) {
	if c.Kind != CompressTopK {
		c.Fraction = 0
	}
	return c, c.validate()
}

// validate rejects codecs no shard could run.
func (c Compression) validate() error {
	switch c.Kind {
	case CompressNone, CompressInt8:
		return nil
	case CompressTopK:
		if !(c.Fraction > 0 && c.Fraction <= 1) {
			return fmt.Errorf("dist: top-k fraction must be in (0, 1], got %g", c.Fraction)
		}
		return nil
	default:
		return fmt.Errorf("dist: unknown compression kind %d", c.Kind)
	}
}

// String renders the codec for errors and experiment labels.
func (c Compression) String() string {
	switch c.Kind {
	case CompressNone:
		return "none"
	case CompressInt8:
		return "int8"
	case CompressTopK:
		return fmt.Sprintf("topk(f=%g)", c.Fraction)
	default:
		return fmt.Sprintf("compression(%d)", c.Kind)
	}
}

// Wire flattens a canonical codec into its two handshake fields (kind
// and the fraction's IEEE-754 bits, so the comparison is exact).
func (c Compression) Wire() (kind uint8, fraction uint64) {
	return uint8(c.Kind), math.Float64bits(c.Fraction)
}

// CompressionFromWire rebuilds a codec from the handshake fields, in
// canonical form but not validated: a peer's codec is only ever
// compared with the local, validated one.
func CompressionFromWire(kind uint8, fraction uint64) Compression {
	c := Compression{Kind: CompressionKind(kind)}
	if c.Kind == CompressTopK {
		c.Fraction = math.Float64frombits(fraction)
	}
	return c
}

// Encoded gradient blob layout (little endian), self-describing so a
// decoded blob can be cross-checked against the authoritative variable
// shape before any allocation is sized from attacker-controlled bytes:
//
//	kind  uint8            CompressInt8 | CompressTopK
//	dims  uint8            ≤ maxGradDims, and the variable's own rank
//	dim   uint32 × dims
//	int8:  scale float32bits, elems × int8
//	topk:  k uint32, k × uint32 strictly increasing indices, k × float32bits
const maxGradDims = 8

// compress encodes one gradient tensor under the codec, folding the
// error-feedback residual in first. It returns the wire blob and the new
// residual — the mass this frame rounds away or drops — which the caller
// commits only once the parameter server acks the push, so a rejected
// push does not double-count its unsent mass. residual may be nil (the
// first step); CompressNone is not encodable — raw pushes ride the Vars
// field unchanged.
func (c Compression) compress(g *tf.Tensor, residual []float32) (blob []byte, newResidual []float32, err error) {
	if c.Kind == CompressNone {
		return nil, nil, fmt.Errorf("dist: CompressNone has no blob encoding")
	}
	if err := c.validate(); err != nil {
		return nil, nil, err
	}
	src := g.Floats()
	if residual != nil && len(residual) != len(src) {
		return nil, nil, fmt.Errorf("dist: residual has %d elements, gradient has %d", len(residual), len(src))
	}
	// Error feedback: the gradient this frame actually represents is the
	// fresh gradient plus everything earlier frames failed to deliver.
	val := make([]float32, len(src))
	copy(val, src)
	if residual != nil {
		for i := range val {
			val[i] += residual[i]
		}
	}
	shape := g.Shape()
	if len(shape) > maxGradDims {
		return nil, nil, fmt.Errorf("dist: gradient rank %d exceeds the codec limit %d", len(shape), maxGradDims)
	}
	var w wire.Writer
	w.U8(uint8(c.Kind))
	w.U8(uint8(len(shape)))
	for _, d := range shape {
		w.U32(uint32(d))
	}
	newResidual = make([]float32, len(val))
	switch c.Kind {
	case CompressInt8:
		var maxAbs float32
		for _, v := range val {
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		w.Buf = slices.Grow(w.Buf, 4+len(val))
		w.U32(math.Float32bits(scale))
		for i, v := range val {
			var q int8
			if scale > 0 {
				r := math.Round(float64(v / scale))
				if r > 127 {
					r = 127
				} else if r < -127 {
					r = -127
				}
				q = int8(r)
			}
			w.U8(byte(q))
			newResidual[i] = v - float32(float32(q)*scale)
		}
	case CompressTopK:
		k := int(math.Round(c.Fraction * float64(len(val))))
		if k < 1 {
			k = 1
		}
		if k > len(val) {
			k = len(val)
		}
		// Deterministic selection: magnitude descending, index ascending
		// on ties (a strict total order, so any pivot strategy yields
		// the same top-k set), then the kept set re-sorted by index for
		// the wire. Quickselect keeps this O(n) average instead of
		// fully sorting every gradient tensor on every push.
		order := make([]int, len(val))
		for i := range order {
			order[i] = i
		}
		selectTopK(order, val, k)
		kept := order[:k]
		sort.Ints(kept)
		w.Buf = slices.Grow(w.Buf, 4+8*k)
		w.U32(uint32(k))
		for _, idx := range kept {
			w.U32(uint32(idx))
		}
		copy(newResidual, val)
		for _, idx := range kept {
			w.U32(math.Float32bits(val[idx]))
			newResidual[idx] = 0 // sent exactly; nothing left behind
		}
	}
	return w.Buf, newResidual, nil
}

// gradBefore is the top-k ranking: magnitude descending, index
// ascending on ties — a strict total order over distinct indices, so
// the selected set is deterministic regardless of partition order.
func gradBefore(val []float32, a, b int) bool {
	ma, mb := math.Abs(float64(val[a])), math.Abs(float64(val[b]))
	if ma != mb {
		return ma > mb
	}
	return a < b
}

// selectTopK partially partitions order (a permutation of indices into
// val) so its first k entries are the top k under gradBefore, in O(n)
// average time — the wire format re-sorts the kept set by index, so a
// full sort would be wasted work. Hoare quickselect with a middle
// pivot; because the order is strict and total, the zone between the
// partition cursors can only hold the pivot itself.
func selectTopK(order []int, val []float32, k int) {
	lo, hi := 0, len(order) // half-open [lo, hi)
	for hi-lo > 1 && k > lo && k < hi {
		pivot := order[lo+(hi-lo)/2]
		i, j := lo, hi-1
		for i <= j {
			for gradBefore(val, order[i], pivot) {
				i++
			}
			for gradBefore(val, pivot, order[j]) {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // the boundary falls inside the pivot zone: done
		}
	}
}

// decompressGrad rebuilds a dense float32 gradient from a blob produced
// by compress. want is the authoritative variable shape the parameter
// server validated at seed time: the blob's self-described shape must
// match it, so no allocation is ever sized from attacker-controlled
// bytes, and a corrupt or truncated blob is an error, never a panic.
func decompressGrad(blob []byte, want tf.Shape) (*tf.Tensor, error) {
	r := wire.NewReader(blob)
	kind, dims := CompressionKind(r.U8()), int(r.U8())
	if r.Err() == nil && dims != len(want) {
		return nil, fmt.Errorf("dist: gradient blob rank %d, variable has rank %d", dims, len(want))
	}
	shape := make(tf.Shape, len(want))
	elems := 1
	for i := range shape {
		shape[i] = int(r.U32())
		elems *= want[i]
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dist: gradient blob truncated in the shape header: %w", err)
	}
	if !shape.Equal(want) {
		return nil, fmt.Errorf("dist: gradient blob shape %v does not match variable shape %v", shape, want)
	}
	out := make([]float32, elems)
	switch kind {
	case CompressInt8:
		scale := math.Float32frombits(r.U32())
		vals := r.Next(elems)
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("dist: int8 gradient blob of %d elements: %w", elems, err)
		}
		if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) || scale < 0 {
			return nil, fmt.Errorf("dist: int8 gradient blob has invalid scale %v", scale)
		}
		for i, b := range vals {
			out[i] = float32(int8(b)) * scale
		}
	case CompressTopK:
		k := r.Count(8) // an index and a value each
		if r.Err() == nil && (k < 1 || k > elems) {
			return nil, fmt.Errorf("dist: top-k gradient blob keeps %d of %d entries", k, elems)
		}
		idx := make([]int, k)
		prev := -1
		for i := range idx {
			v := int(r.U32())
			if v <= prev || v >= elems {
				return nil, fmt.Errorf("dist: top-k gradient blob index %d out of order or range (elems %d)", v, elems)
			}
			idx[i], prev = v, v
		}
		for _, i := range idx {
			out[i] = math.Float32frombits(r.U32())
		}
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("dist: top-k gradient blob of %d entries: %w", k, err)
		}
	default:
		return nil, fmt.Errorf("dist: gradient blob has unknown codec kind %d", kind)
	}
	return tf.FromFloats(shape, out)
}
