// Package tf is a from-scratch reimplementation of the TensorFlow 1.x
// execution model that secureTF wraps: a statically built dataflow graph
// of operations executed by a session, with reverse-mode automatic
// differentiation, optimizers, frozen-graph export and checkpoints.
//
// The engine performs real numerics — training genuinely converges — and
// reports its work (FLOPs, bytes) to a device.Device so the enclave cost
// model sees the same workload shape the paper's TensorFlow did.
//
// Whose memory is whose: the tensors Session.Run returns are the
// caller's, and nothing the session does later writes to them.
// Everything else a Run computes is the session's until the next Run,
// which computes into the same storage: before a Run the session lays
// every intermediate, scratch buffer and forward cache out in one
// float32 and one int32 slab, each where nothing live beside it lies
// (runPlan), so a training step allocates the results it hands back and
// little else — and nothing, when RunInto copies the results into
// tensors the caller keeps. No Run writes its feeds, so a feed may be a
// view of data the caller keeps (Minibatch). A variable's tensor is the
// session's for the session's life; SetVariable, RestoreCheckpoint and
// DecodeTensorInto through VariableStorage write into it, Variable and a
// fetch copy out of it. What the device is charged for a Run's
// intermediates ("tf/arena") is the slabs, which is what the Run's plan
// holds live at its peak, plus the Run's Const values, at its most over
// Runs; the variables are charged once, as "tf/variables".
package tf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// DType is a tensor element type.
type DType uint8

// Supported element types.
const (
	Float32 DType = iota + 1
	Int32
)

// String names the dtype.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int32:
		return "int32"
	default:
		return "invalid"
	}
}

// Shape is a tensor shape; -1 marks an unknown (batch) dimension in graph
// building, but concrete tensors always have fully known shapes.
type Shape []int

// NumElements returns the element count, or -1 if any dimension is
// unknown.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			return -1
		}
		n *= d
	}
	return n
}

// Equal reports exact shape equality.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone copies the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// String renders the shape like [2 3 4].
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Tensor is a dense tensor of Float32 or Int32 elements in row-major
// order.
type Tensor struct {
	dtype DType
	shape Shape
	f32   []float32
	i32   []int32
}

// NewTensor allocates a zero-filled tensor.
func NewTensor(dtype DType, shape Shape) *Tensor {
	n := shape.NumElements()
	if n < 0 {
		// A copy, so that shape does not escape: a caller's literal
		// stays on its stack.
		panic(fmt.Sprintf("tf: cannot allocate tensor with unknown shape %v", shape.Clone()))
	}
	t := &Tensor{dtype: dtype, shape: shape.Clone()}
	switch dtype {
	case Int32:
		t.i32 = make([]int32, n)
	default:
		t.f32 = make([]float32, n)
	}
	return t
}

// FromFloats builds a Float32 tensor from data (copied).
func FromFloats(shape Shape, data []float32) (*Tensor, error) {
	if shape.NumElements() != len(data) {
		return nil, fmt.Errorf("tf: shape %v needs %d elements, got %d", shape, shape.NumElements(), len(data))
	}
	t := NewTensor(Float32, shape)
	copy(t.f32, data)
	return t, nil
}

// FromInts builds an Int32 tensor from data (copied).
func FromInts(shape Shape, data []int32) (*Tensor, error) {
	if shape.NumElements() != len(data) {
		return nil, fmt.Errorf("tf: shape %v needs %d elements, got %d", shape, shape.NumElements(), len(data))
	}
	t := NewTensor(Int32, shape)
	copy(t.i32, data)
	return t, nil
}

// Scalar builds a rank-0 Float32 tensor.
func Scalar(v float32) *Tensor {
	t := NewTensor(Float32, Shape{})
	t.f32[0] = v
	return t
}

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Shape returns the tensor shape (caller must not mutate).
func (t *Tensor) Shape() Shape { return t.shape }

// NumElements returns the element count.
func (t *Tensor) NumElements() int {
	if t.dtype == Int32 {
		return len(t.i32)
	}
	return len(t.f32)
}

// Bytes returns the storage size in bytes.
func (t *Tensor) Bytes() int64 { return int64(t.NumElements()) * 4 }

// Floats exposes the Float32 backing slice (shared, not copied).
func (t *Tensor) Floats() []float32 {
	if t.dtype != Float32 {
		panic("tf: Floats on non-float tensor")
	}
	return t.f32
}

// Ints exposes the Int32 backing slice (shared, not copied).
func (t *Tensor) Ints() []int32 {
	if t.dtype != Int32 {
		panic("tf: Ints on non-int tensor")
	}
	return t.i32
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := NewTensor(t.dtype, t.shape)
	copy(out.f32, t.f32)
	copy(out.i32, t.i32)
	return out
}

// SliceRows returns rows [lo, hi) of a tensor's leading dimension as a
// new tensor (minibatching helper).
func SliceRows(t *Tensor, lo, hi int) (*Tensor, error) {
	rows, err := rowsView(t, lo, hi)
	if err != nil {
		return nil, err
	}
	return rows.Clone(), nil
}

// rowsView returns rows [lo, hi) of a tensor's leading dimension as a
// view of its storage.
func rowsView(t *Tensor, lo, hi int) (*Tensor, error) {
	shape := t.Shape()
	if len(shape) == 0 {
		return nil, errors.New("tf: cannot slice a scalar")
	}
	if lo < 0 || hi > shape[0] || lo >= hi {
		return nil, fmt.Errorf("tf: slice [%d, %d) out of range for leading dimension %d", lo, hi, shape[0])
	}
	row := t.NumElements() / shape[0]
	view := &Tensor{dtype: t.dtype, shape: append(Shape{hi - lo}, shape[1:]...)}
	switch t.dtype {
	case Float32:
		view.f32 = t.f32[lo*row : hi*row : hi*row]
	case Int32:
		view.i32 = t.i32[lo*row : hi*row : hi*row]
	default:
		return nil, fmt.Errorf("tf: slice of unsupported dtype %v", t.dtype)
	}
	return view, nil
}

// Minibatch returns step's minibatch of a data shard, by the schedule
// every trainer walks: the rows from step·batch mod n on, batch of them
// or as many as are left before the shard's end. It never wraps, so the
// rows are contiguous and bx and by are views of the shard, not copies:
// a Run never writes its feeds. A round that restarts the schedule
// (federated) counts steps within the round, a job that resumes one
// (StartStep) within the job. What it indexes it checks, so
// a trainer that calls it once when it is built has validated its
// shard: inputs and labels with a leading dimension each, of the same
// size n ≥ 1, and a batch of at least one row.
func Minibatch(xs, ys *Tensor, batch, step int) (bx, by *Tensor, err error) {
	switch {
	case xs == nil || ys == nil:
		return nil, nil, errors.New("tf: a data shard needs inputs and labels")
	case len(xs.Shape()) == 0 || len(ys.Shape()) == 0:
		return nil, nil, fmt.Errorf("tf: a data shard needs a leading dimension, got shapes %v and %v", xs.Shape(), ys.Shape())
	case xs.Shape()[0] != ys.Shape()[0] || xs.Shape()[0] < 1:
		return nil, nil, fmt.Errorf("tf: a data shard has %d inputs and %d labels, want as many of one as of the other and at least one", xs.Shape()[0], ys.Shape()[0])
	case batch < 1 || step < 0:
		return nil, nil, fmt.Errorf("tf: step %d at batch size %d, want step ≥ 0 and batch ≥ 1", step, batch)
	}
	n := xs.Shape()[0]
	lo := (step * batch) % n
	hi := min(lo+batch, n)
	if bx, err = rowsView(xs, lo, hi); err != nil {
		return nil, nil, err
	}
	if by, err = rowsView(ys, lo, hi); err != nil {
		return nil, nil, err
	}
	return bx, by, nil
}

// Reshape returns a view with a new shape of equal element count. A -1
// dimension is inferred.
func (t *Tensor) Reshape(shape Shape) (*Tensor, error) {
	resolved := shape.Clone()
	if err := resolveReshape(t.NumElements(), resolved); err != nil {
		return nil, err
	}
	return &Tensor{dtype: t.dtype, shape: resolved, f32: t.f32, i32: t.i32}, nil
}

// ReshapeInto is Reshape that re-points dst, reusing its shape storage,
// at src's storage instead of making a view. On error dst holds nothing.
func ReshapeInto(dst, src *Tensor, shape Shape) error {
	resolved := append(dst.shape[:0], shape...)
	if err := resolveReshape(src.NumElements(), resolved); err != nil {
		*dst = Tensor{shape: resolved[:0]}
		return err
	}
	dst.dtype, dst.shape, dst.f32, dst.i32 = src.dtype, resolved, src.f32, src.i32
	return nil
}

// resolveReshape checks shape as the target of reshaping count elements
// (-1: unknown) and, count known, fills in its one -1 dim in place.
func resolveReshape(count int, shape Shape) error {
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				return fmt.Errorf("tf: reshape with multiple -1 dims: %v", shape)
			}
			infer = i
		case d <= 0 || known > math.MaxInt/d:
			return fmt.Errorf("tf: invalid reshape dim %d", d)
		default:
			known *= d
		}
	}
	switch {
	case count < 0:
	case infer >= 0 && count%known == 0:
		shape[infer] = count / known
	case infer >= 0 || known != count:
		return fmt.Errorf("tf: cannot reshape %d elements to %v", count, shape)
	}
	return nil
}

// RandNormal fills a new Float32 tensor with N(0, stddev) values from the
// given seed (deterministic).
func RandNormal(shape Shape, stddev float64, seed int64) *Tensor {
	t := NewTensor(Float32, shape)
	rng := rand.New(rand.NewSource(seed))
	for i := range t.f32 {
		t.f32[i] = float32(rng.NormFloat64() * stddev)
	}
	return t
}

// GlorotUniform fills a new Float32 tensor with Glorot/Xavier-uniform
// values for the given fan-in/fan-out (deterministic per seed).
func GlorotUniform(shape Shape, fanIn, fanOut int, seed int64) *Tensor {
	t := NewTensor(Float32, shape)
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	rng := rand.New(rand.NewSource(seed))
	for i := range t.f32 {
		u := float64(rng.Float64()) // Float64 inlines to a product, which must not fuse either
		t.f32[i] = float32((float64(u*2) - 1) * limit)
	}
	return t
}

// Fill returns a Float32 tensor filled with v.
func Fill(shape Shape, v float32) *Tensor {
	t := NewTensor(Float32, shape)
	for i := range t.f32 {
		t.f32[i] = v
	}
	return t
}

// OneHot builds a [len(labels), depth] Float32 one-hot tensor.
func OneHot(labels []int, depth int) *Tensor {
	t := NewTensor(Float32, Shape{len(labels), depth})
	for i, l := range labels {
		if l >= 0 && l < depth {
			t.f32[i*depth+l] = 1
		}
	}
	return t
}

// AllClose reports whether two Float32 tensors match within tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if a.dtype != Float32 || b.dtype != Float32 || !a.shape.Equal(b.shape) {
		return false
	}
	for i := range a.f32 {
		if math.Abs(float64(a.f32[i]-b.f32[i])) > tol {
			return false
		}
	}
	return true
}
