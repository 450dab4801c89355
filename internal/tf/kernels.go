package tf

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/securetf/securetf/internal/tf/kernels"
)

// execCtx is the evaluation context a session's Runs share: the plan
// being run (its values, output headers and the forward caches gradient
// kernels read — dropout masks, pooling argmaxes, softmax
// probabilities), the node at work, the RNG, and the session, whose
// device is charged for the work.
type execCtx struct {
	sess     *Session
	plan     *runPlan
	at       int // the position in plan of the node evaluated
	training bool
	rng      *rand.Rand // dropout's draws: the Run's RNG option, else the session's
	in       []*Tensor  // the node evaluated's inputs, reused node to node
	shapes   []Shape    // and theirs
	shape    Shape      // and its output's, as its rule derived it before the Run
}

// charge reports work to the session's device. The node's cost scale
// (see Node.SetCostScale) applies to FLOPs only: a stand-in layer charges
// the declared architecture's arithmetic, but its memory traffic is the
// real bytes it moves — weights are streamed once per pass either way.
func (ctx *execCtx) charge(n *Node, flops, bytes int64, streaming bool) {
	if flops > 0 {
		ctx.sess.device.Compute(int64(float64(flops) * n.CostScale()))
	}
	if bytes > 0 {
		ctx.sess.device.Access(bytes, streaming)
	}
}

// out draws the node's Float32 output, of the shape its rule derived,
// for a kernel that writes every element of it: the storage is the
// node's span of the session's slab and holds whatever its last user
// left in it.
func (ctx *execCtx) out() *Tensor { return ctx.draw(Float32, false) }

// zeroed is out for a kernel that accumulates into its output, or
// writes only some of it.
func (ctx *execCtx) zeroed() *Tensor { return ctx.draw(Float32, true) }

// draw re-points the node's output header, which the plan keeps from
// Run to Run, at its span for its dtype and shape. The plan sized the
// span from that shape, so the draw fits it.
func (ctx *execCtx) draw(dtype DType, zero bool) *Tensor {
	p := ctx.plan
	t, s := &p.slots[ctx.at], &p.spans[p.outSpan[ctx.at]]
	if s.i32 != (dtype == Int32) {
		panic(fmt.Sprintf("tf: %s drew a %v output into a span of the other dtype", p.order[ctx.at].op, dtype))
	}
	n := ctx.shape.NumElements()
	t.dtype, t.shape, t.f32, t.i32 = dtype, append(t.shape[:0], ctx.shape...), nil, nil
	if s.i32 {
		t.i32 = slice(ctx.sess.i32, s, n, zero)
	} else {
		t.f32 = slice(ctx.sess.f32, s, n, zero)
	}
	return t
}

// floats draws the node's scratch draw i, n float32s: a size other than
// the one its op declared (opMemory) is an error.
func (ctx *execCtx) floats(i, n int, zero bool) ([]float32, error) {
	s, err := ctx.scratch(i, n, false)
	if err != nil {
		return nil, err
	}
	return slice(ctx.sess.f32, s, n, zero), nil
}

// ints is floats for int32s.
func (ctx *execCtx) ints(i, n int) ([]int32, error) {
	s, err := ctx.scratch(i, n, true)
	if err != nil {
		return nil, err
	}
	return slice(ctx.sess.i32, s, n, false), nil
}

// scratch returns the span of the node's scratch draw i, if the plan
// laid it out for n elements of the dtype.
func (ctx *execCtx) scratch(i, n int, i32 bool) (*span, error) {
	uses := ctx.plan.scratch[ctx.at]
	if i >= len(uses) || uses[i].i32 != i32 {
		return nil, fmt.Errorf("scratch draw %d is not declared", i)
	}
	s := &ctx.plan.spans[uses[i].span]
	if s.n != n {
		return nil, fmt.Errorf("scratch draw %d of %d elements, %d planned", i, n, s.n)
	}
	return s, nil
}

// keep leaves the node's forward cache for its gradient kernel.
func (ctx *execCtx) keep(c cache) { ctx.plan.caches[ctx.at] = c }

// kernelFunc computes a node's output from its input tensors, which its
// op's rule has checked. The output and all scratch, forward caches
// included, come from ctx, never from NewTensor or make: the Run's plan
// lays them out, and a scratch draw its op does not declare (opMemory)
// fails.
type kernelFunc func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error)

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// kernelUnary lifts an elementwise function.
func kernelUnary(f func(float32) float32) kernelFunc {
	return func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
		x := in[0]
		out := ctx.out()
		for i, v := range x.f32 {
			out.f32[i] = f(v)
		}
		ctx.charge(n, int64(len(x.f32)), 2*x.Bytes(), false)
		return out, nil
	}
}

func kernelRelu(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	out := ctx.out()
	kernels.Relu(out.f32, x.f32)
	ctx.charge(n, int64(len(x.f32)), 2*x.Bytes(), false)
	return out, nil
}

// kernelBinary lifts an elementwise function over operands of one
// shape, or either a single element broadcast (at stride 0) over the
// other.
func kernelBinary(f func(a, b float32) float32) kernelFunc {
	return func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
		a, b, out := in[0].f32, in[1].f32, ctx.out()
		sa, sb, bytes := min(len(a)-1, 1), min(len(b)-1, 1), 3*out.Bytes()
		if len(a) != len(b) {
			bytes = 2 * out.Bytes()
		}
		for i := range out.f32 {
			out.f32[i] = f(a[i*sa], b[i*sb])
		}
		ctx.charge(n, int64(len(out.f32)), bytes, false)
		return out, nil
	}
}

// kernelMatMul multiplies its operands, transposing either into scratch
// for the product alone.
func kernelMatMul(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	a, b := in[0].f32, in[1].f32
	m, k, nn := in[0].shape[0], in[0].shape[1], in[1].shape[1]
	var err error
	if attr(n, "transpose_a", false) {
		if a, err = ctx.transpose(0, a, m, k); err != nil {
			return nil, err
		}
		m, k = k, m
	}
	if attr(n, "transpose_b", false) {
		if b, err = ctx.transpose(1, b, in[1].shape[0], nn); err != nil {
			return nil, err
		}
		nn = in[1].shape[0]
	}
	out := ctx.zeroed()
	kernels.MatMulInto(out.f32, a, b, m, k, nn, ctx.sess.device.Threads())
	ctx.charge(n, 2*int64(m)*int64(k)*int64(nn), 4*int64(len(a)+len(b))+out.Bytes(), false)
	return out, nil
}

// transpose writes the transpose of the [m,n] matrix t to the node's
// scratch draw i.
func (ctx *execCtx) transpose(i int, t []float32, m, n int) ([]float32, error) {
	out, err := ctx.floats(i, m*n, false)
	if err != nil {
		return nil, err
	}
	kernels.Transpose(out, t, m, n)
	return out, nil
}

func kernelBiasAdd(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x, bias := in[0], in[1]
	out := ctx.out()
	kernels.BiasAdd(out.f32, x.f32, bias.f32)
	ctx.charge(n, int64(len(x.f32)), 2*x.Bytes(), false)
	return out, nil
}

func conv2DGeom(x, filter *Tensor, n *Node) (kernels.Geom, error) {
	return kernels.ConvGeom(x.Shape(), filter.Shape(), int(attr(n, "stride", int64(1))),
		attr(n, "padding", PaddingValid) == PaddingSame)
}

func kernelConv2D(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x, filter := in[0], in[1]
	geo, err := conv2DGeom(x, filter, n)
	if err != nil {
		return nil, err
	}
	out := ctx.zeroed()
	kernels.Conv2DInto(out.f32, x.f32, filter.f32, geo)
	ctx.charge(n, geo.ConvFLOPs(), x.Bytes()+filter.Bytes()+out.Bytes(), false)
	return out, nil
}

func poolGeom(x *Tensor, n *Node) (kernels.Geom, error) {
	return kernels.PoolGeom(x.Shape(), int(attr(n, "k", int64(2))), int(attr(n, "stride", int64(2))))
}

// cache is what a forward kernel leaves its gradient kernel: what it
// computed, the op it was and the shape of the tensor it read.
type cache struct {
	op     string
	shape  Shape
	f32    []float32 // a dropout mask, or softmax probabilities
	argmax []int32   // a max pool's, and the window it moved
	geo    kernels.Geom
}

// forward returns the cache the forward node named in the evaluated
// node's "forward" attribute left this Run, or nil. A loaded graph can
// name any node: a cache another op left, or one over a tensor not of
// x's shape, errs.
func (ctx *execCtx) forward(op string, x *Tensor) (*cache, error) {
	j := ctx.plan.forward[ctx.at]
	if j < 0 || ctx.plan.caches[j].op == "" {
		return nil, nil
	}
	c := &ctx.plan.caches[j]
	if c.op != op || !c.shape.Equal(x.shape) {
		return nil, fmt.Errorf("the forward cache is a %s's over %v, not a %s's over %v", c.op, c.shape, op, x.shape)
	}
	return c, nil
}

// kernelPool max- or average-pools; the max pool caches its argmax for
// MaxPoolGrad.
func kernelPool(maxPool bool) kernelFunc {
	return func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
		x := in[0]
		geo, err := poolGeom(x, n)
		if err != nil {
			return nil, err
		}
		out := ctx.out()
		if maxPool {
			argmax, err := ctx.ints(0, out.NumElements())
			if err != nil {
				return nil, err
			}
			kernels.MaxPool(out.f32, x.f32, geo, argmax)
			ctx.keep(cache{op: OpMaxPool, shape: x.shape, argmax: argmax, geo: geo})
		} else {
			kernels.AvgPool(out.f32, x.f32, geo)
		}
		ctx.charge(n, int64(out.NumElements())*int64(geo.KH*geo.KW), x.Bytes()+out.Bytes(), false)
		return out, nil
	}
}

func kernelSoftmax(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	_, cols := kernels.RowsCols(x.Shape())
	out := ctx.out()
	if err := kernels.SoftmaxRows(out.f32, x.f32, cols); err != nil {
		return nil, err
	}
	ctx.charge(n, 4*int64(x.NumElements()), 2*x.Bytes(), false)
	return out, nil
}

func kernelSoftmaxXent(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	logits, labels := in[0], in[1]
	rows, cols := kernels.RowsCols(logits.Shape())
	probs, err := ctx.floats(0, rows*cols, false)
	if err != nil {
		return nil, err
	}
	if err := kernels.SoftmaxRows(probs, logits.f32, cols); err != nil {
		return nil, err
	}
	out := ctx.out()
	for r := 0; r < rows; r++ {
		var loss float64
		for c := 0; c < cols; c++ {
			l := labels.f32[r*cols+c]
			if l != 0 {
				p := math.Max(float64(probs[r*cols+c]), 1e-12)
				loss -= float64(float64(l) * math.Log(p))
			}
		}
		out.f32[r] = float32(loss)
	}
	ctx.keep(cache{op: OpSoftmaxXent, shape: logits.shape, f32: probs})
	ctx.charge(n, 6*int64(rows)*int64(cols), 2*logits.Bytes(), false)
	return out, nil
}

// kernelReshape views x's storage in the shape its rule resolved.
func kernelReshape(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	ctx.charge(n, 0, 0, false)
	t := &ctx.plan.slots[ctx.at]
	t.dtype, t.shape, t.f32, t.i32 = in[0].dtype, append(t.shape[:0], ctx.shape...), in[0].f32, in[0].i32
	return t, nil
}

func kernelDropout(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	if !ctx.training {
		return x, nil
	}
	rate := attr(n, "rate", 0.5)
	keep := 1 - rate
	scale := float32(1 / keep)
	mask, err := ctx.floats(0, x.NumElements(), true)
	if err != nil {
		return nil, err
	}
	out := ctx.zeroed()
	for i, v := range x.f32 {
		if ctx.rng.Float64() < keep {
			mask[i] = scale
			out.f32[i] = v * scale
		}
	}
	ctx.keep(cache{op: OpDropout, shape: x.shape, f32: mask})
	ctx.charge(n, int64(len(x.f32)), 3*x.Bytes(), false)
	return out, nil
}

func kernelReduce(mean bool) kernelFunc {
	return func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
		x := in[0]
		var sum float64
		for _, v := range x.f32 {
			sum += float64(v)
		}
		if mean && x.NumElements() > 0 {
			sum /= float64(x.NumElements())
		}
		ctx.charge(n, int64(x.NumElements()), x.Bytes(), true)
		out := ctx.out()
		out.f32[0] = float32(sum)
		return out, nil
	}
}

func kernelArgMax(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	_, cols := kernels.RowsCols(x.Shape())
	out := ctx.draw(Int32, false)
	if err := kernels.ArgMaxRows(out.i32, x.f32, cols); err != nil {
		return nil, err
	}
	ctx.charge(n, int64(x.NumElements()), x.Bytes(), true)
	return out, nil
}

func kernelEqual(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	a, b := in[0], in[1]
	out := ctx.zeroed()
	for i := range out.f32 {
		if (a.dtype == Int32 && a.i32[i] == b.i32[i]) || (a.dtype == Float32 && a.f32[i] == b.f32[i]) {
			out.f32[i] = 1
		}
	}
	ctx.charge(n, int64(a.NumElements()), 3*a.Bytes(), false)
	return out, nil
}

func kernelBroadcastLike(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	src, like := in[0], in[1]
	v := src.f32[0]
	if attr(n, "scale", "") == "mean" && like.NumElements() > 0 {
		// Gradient of ReduceMean: each element receives grad/N.
		v /= float32(like.NumElements())
	}
	out := ctx.out()
	for i := range out.f32 {
		out.f32[i] = v
	}
	ctx.charge(n, 0, out.Bytes(), true)
	return out, nil
}

func kernelGroup(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	return ctx.zeroed(), nil
}
