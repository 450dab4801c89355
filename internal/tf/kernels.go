package tf

import (
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/tf/kernels"
)

// execCtx is the per-Run evaluation context: computed values, forward
// caches used by gradient kernels (dropout masks, pooling argmaxes,
// softmax probabilities), the RNG, and the device charged for the work.
type execCtx struct {
	sess     *Session
	training bool
	values   map[*Node]*Tensor
	extras   map[string]any
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

// out draws a Float32 tensor for a kernel that writes every element of
// its output: the storage comes from the session's free list and holds
// whatever the last Run left in it.
func (ctx *execCtx) out(shape Shape) *Tensor { return ctx.tensor(shape, false) }

// zeroed is out for a kernel that accumulates into its output, or
// writes only some of it.
func (ctx *execCtx) zeroed(shape Shape) *Tensor { return ctx.tensor(shape, true) }

func (ctx *execCtx) tensor(shape Shape, zero bool) *Tensor {
	return &Tensor{dtype: Float32, shape: shape.Clone(), f32: ctx.sess.f32.get(shape.NumElements(), zero)}
}

// scalar is Scalar from the free list.
func (ctx *execCtx) scalar(v float32) *Tensor {
	t := ctx.out(Shape{})
	t.f32[0] = v
	return t
}

// kernelFunc computes a node's output from its input tensors. The
// output and every forward cache come from ctx, never from NewTensor or
// make: the session takes them back when the Run ends.
type kernelFunc func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error)

// opKernels maps op names to implementations. Populated once at package
// initialization and read-only afterwards.
var opKernels = map[string]kernelFunc{
	OpAdd:           kernelBinary(func(a, b float32) float32 { return a + b }),
	OpSub:           kernelBinary(func(a, b float32) float32 { return a - b }),
	OpMul:           kernelBinary(func(a, b float32) float32 { return a * b }),
	OpDiv:           kernelBinary(func(a, b float32) float32 { return a / b }),
	OpNeg:           kernelUnary(func(x float32) float32 { return -x }),
	OpSquare:        kernelUnary(func(x float32) float32 { return x * x }),
	OpSqrt:          kernelUnary(func(x float32) float32 { return float32(math.Sqrt(float64(x))) }),
	OpExp:           kernelUnary(func(x float32) float32 { return float32(math.Exp(float64(x))) }),
	OpLog:           kernelUnary(func(x float32) float32 { return float32(math.Log(float64(x))) }),
	OpRelu:          kernelRelu,
	OpSigmoid:       kernelUnary(sigmoid32),
	OpTanh:          kernelUnary(func(x float32) float32 { return float32(math.Tanh(float64(x))) }),
	OpMatMul:        kernelMatMul,
	OpBiasAdd:       kernelBiasAdd,
	OpConv2D:        kernelConv2D,
	OpMaxPool:       kernelPool(true),
	OpAvgPool:       kernelPool(false),
	OpSoftmax:       kernelSoftmax,
	OpSoftmaxXent:   kernelSoftmaxXent,
	OpReshape:       kernelReshape,
	OpDropout:       kernelDropout,
	OpReduceMean:    kernelReduce(true),
	OpReduceSum:     kernelReduce(false),
	OpArgMax:        kernelArgMax,
	OpEqual:         kernelEqual,
	OpBroadcastLike: kernelBroadcastLike,
	OpGroup:         kernelGroup,

	OpReluGrad:         kernelReluGrad,
	OpSigmoidGrad:      kernelSigmoidGrad,
	OpTanhGrad:         kernelTanhGrad,
	OpBiasAddGrad:      kernelBiasAddGrad,
	OpMaxPoolGrad:      kernelMaxPoolGrad,
	OpAvgPoolGrad:      kernelAvgPoolGrad,
	OpConv2DGradInput:  kernelConv2DGradInput,
	OpConv2DGradFilter: kernelConv2DGradFilter,
	OpSoftmaxXentGrad:  kernelSoftmaxXentGrad,
	OpDropoutGrad:      kernelDropoutGrad,

	OpApplySGD:      kernelApplySGD,
	OpApplyMomentum: kernelApplyMomentum,
	OpApplyAdam:     kernelApplyAdam,
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// kernelUnary lifts an elementwise function.
func kernelUnary(f func(float32) float32) kernelFunc {
	return func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
		x := in[0]
		out := ctx.out(x.Shape())
		for i, v := range x.f32 {
			out.f32[i] = f(v)
		}
		ctx.charge(n, int64(len(x.f32)), 2*x.Bytes(), false)
		return out, nil
	}
}

func kernelRelu(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	out := ctx.out(x.Shape())
	kernels.Relu(out.f32, x.f32)
	ctx.charge(n, int64(len(x.f32)), 2*x.Bytes(), false)
	return out, nil
}

// kernelBinary lifts an elementwise function with scalar broadcasting on
// either side.
func kernelBinary(f func(a, b float32) float32) kernelFunc {
	return func(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
		a, b := in[0], in[1]
		switch {
		case a.NumElements() == 1 && b.NumElements() == 1:
			// Both single-element (possibly different ranks, e.g. a
			// scalar gradient seed against a [1,1,1,1] activation): the
			// result takes the higher-rank shape.
			shape := a.Shape()
			if len(b.Shape()) > len(shape) {
				shape = b.Shape()
			}
			out := ctx.out(shape)
			out.f32[0] = f(a.f32[0], b.f32[0])
			ctx.charge(n, 1, 12, false)
			return out, nil
		case a.NumElements() == 1 && b.NumElements() > 1:
			out := ctx.out(b.Shape())
			av := a.f32[0]
			for i, bv := range b.f32 {
				out.f32[i] = f(av, bv)
			}
			ctx.charge(n, int64(len(b.f32)), 2*b.Bytes(), false)
			return out, nil
		case b.NumElements() == 1 && a.NumElements() > 1:
			out := ctx.out(a.Shape())
			bv := b.f32[0]
			for i, av := range a.f32 {
				out.f32[i] = f(av, bv)
			}
			ctx.charge(n, int64(len(a.f32)), 2*a.Bytes(), false)
			return out, nil
		default:
			if !a.Shape().Equal(b.Shape()) {
				return nil, fmt.Errorf("tf: %s: runtime shape mismatch %v vs %v", n.op, a.Shape(), b.Shape())
			}
			out := ctx.out(a.Shape())
			for i := range a.f32 {
				out.f32[i] = f(a.f32[i], b.f32[i])
			}
			ctx.charge(n, int64(len(a.f32)), 3*a.Bytes(), false)
			return out, nil
		}
	}
}

func kernelMatMul(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	a, b := in[0], in[1]
	if len(a.Shape()) != 2 || len(b.Shape()) != 2 {
		return nil, fmt.Errorf("tf: MatMul: runtime shapes %v x %v", a.Shape(), b.Shape())
	}
	if n.attrBool("transpose_a", false) {
		a = ctx.transpose2D(a)
	}
	if n.attrBool("transpose_b", false) {
		b = ctx.transpose2D(b)
	}
	if a.Shape()[1] != b.Shape()[0] {
		return nil, fmt.Errorf("tf: MatMul: inner dims %v x %v", a.Shape(), b.Shape())
	}
	m, k, nn := a.Shape()[0], a.Shape()[1], b.Shape()[1]
	out := ctx.zeroed(Shape{m, nn})
	kernels.MatMulInto(out.f32, a.f32, b.f32, m, k, nn, ctx.sess.device.Threads())
	ctx.charge(n, 2*int64(m)*int64(k)*int64(nn), a.Bytes()+b.Bytes()+out.Bytes(), false)
	return out, nil
}

// transpose2D materializes the transpose of a [m,n] tensor.
func (ctx *execCtx) transpose2D(t *Tensor) *Tensor {
	m, n := t.Shape()[0], t.Shape()[1]
	out := ctx.out(Shape{n, m})
	kernels.Transpose(out.f32, t.f32, m, n)
	return out
}

func kernelBiasAdd(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x, bias := in[0], in[1]
	c := bias.NumElements()
	if c == 0 || x.NumElements()%c != 0 {
		return nil, fmt.Errorf("tf: BiasAdd: %d elements not divisible by %d channels", x.NumElements(), c)
	}
	out := ctx.out(x.Shape())
	kernels.BiasAdd(out.f32, x.f32, bias.f32)
	ctx.charge(n, int64(len(x.f32)), 2*x.Bytes(), false)
	return out, nil
}

func conv2DGeom(x, filter *Tensor, n *Node) (kernels.Geom, error) {
	return kernels.ConvGeom(x.Shape(), filter.Shape(), int(n.attrInt("stride", 1)),
		n.attrString("padding", PaddingValid) == PaddingSame)
}

func kernelConv2D(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x, filter := in[0], in[1]
	geo, err := conv2DGeom(x, filter, n)
	if err != nil {
		return nil, err
	}
	out := ctx.zeroed(Shape{geo.N, geo.OH, geo.OW, geo.F})
	kernels.Conv2DInto(out.f32, x.f32, filter.f32, geo)
	ctx.charge(n, geo.ConvFLOPs(), x.Bytes()+filter.Bytes()+out.Bytes(), false)
	return out, nil
}

func poolGeom(x *Tensor, n *Node) (kernels.Geom, error) {
	return kernels.PoolGeom(x.Shape(), int(n.attrInt("k", 2)), int(n.attrInt("stride", 2)))
}

// poolCache is what a max pool leaves MaxPoolGrad: the flat input index
// each maximum came from, and the geometry it pooled over.
type poolCache struct {
	argmax []int32
	geo    kernels.Geom
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
		out := ctx.out(Shape{geo.N, geo.OH, geo.OW, geo.C})
		if maxPool {
			argmax := ctx.sess.i32.get(out.NumElements(), false)
			kernels.MaxPool(out.f32, x.f32, geo, argmax)
			ctx.extras[n.name] = poolCache{argmax, geo}
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
	out := ctx.out(x.Shape())
	if err := kernels.SoftmaxRows(out.f32, x.f32, cols); err != nil {
		return nil, err
	}
	ctx.charge(n, 4*int64(x.NumElements()), 2*x.Bytes(), false)
	return out, nil
}

func kernelSoftmaxXent(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	logits, labels := in[0], in[1]
	if !logits.Shape().Equal(labels.Shape()) {
		return nil, fmt.Errorf("tf: SoftmaxCrossEntropy: %v vs %v", logits.Shape(), labels.Shape())
	}
	rows, cols := kernels.RowsCols(logits.Shape())
	probs := ctx.sess.f32.get(rows*cols, false)
	if err := kernels.SoftmaxRows(probs, logits.f32, cols); err != nil {
		return nil, err
	}
	out := ctx.out(Shape{rows})
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
	ctx.extras[n.name] = probs
	ctx.charge(n, 6*int64(rows)*int64(cols), 2*logits.Bytes(), false)
	return out, nil
}

func kernelReshape(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	ints := n.attrInts("shape")
	shape := make(Shape, len(ints))
	for i, d := range ints {
		shape[i] = int(d)
	}
	out, err := x.Reshape(shape)
	if err != nil {
		return nil, err
	}
	ctx.charge(n, 0, 0, false)
	return out, nil
}

func kernelDropout(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	if !ctx.training {
		return x, nil
	}
	rate := n.attrFloat("rate", 0.5)
	keep := 1 - rate
	scale := float32(1 / keep)
	out := ctx.zeroed(x.Shape())
	mask := ctx.sess.f32.get(x.NumElements(), true)
	for i, v := range x.f32 {
		if ctx.sess.rng.Float64() < keep {
			mask[i] = scale
			out.f32[i] = v * scale
		}
	}
	ctx.extras[n.name] = mask
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
		return ctx.scalar(float32(sum)), nil
	}
}

func kernelArgMax(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	x := in[0]
	rows, cols := kernels.RowsCols(x.Shape())
	out := &Tensor{dtype: Int32, shape: Shape{rows}, i32: ctx.sess.i32.get(rows, false)}
	if err := kernels.ArgMaxRows(out.i32, x.f32, cols); err != nil {
		return nil, err
	}
	ctx.charge(n, int64(x.NumElements()), x.Bytes(), true)
	return out, nil
}

func kernelEqual(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	a, b := in[0], in[1]
	if a.NumElements() != b.NumElements() {
		return nil, fmt.Errorf("tf: Equal: %d vs %d elements", a.NumElements(), b.NumElements())
	}
	out := ctx.zeroed(a.Shape())
	for i := 0; i < a.NumElements(); i++ {
		var eq bool
		if a.DType() == Int32 && b.DType() == Int32 {
			eq = a.i32[i] == b.i32[i]
		} else if a.DType() == Float32 && b.DType() == Float32 {
			eq = a.f32[i] == b.f32[i]
		} else {
			return nil, fmt.Errorf("tf: Equal: mixed dtypes %v vs %v", a.DType(), b.DType())
		}
		if eq {
			out.f32[i] = 1
		}
	}
	ctx.charge(n, int64(a.NumElements()), 3*a.Bytes(), false)
	return out, nil
}

func kernelBroadcastLike(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	src, like := in[0], in[1]
	if src.NumElements() != 1 {
		return nil, fmt.Errorf("tf: BroadcastLike: source must be scalar, got %v", src.Shape())
	}
	v := src.f32[0]
	if n.attrString("scale", "") == "mean" && like.NumElements() > 0 {
		// Gradient of ReduceMean: each element receives grad/N.
		v /= float32(like.NumElements())
	}
	out := ctx.out(like.Shape())
	for i := range out.f32 {
		out.f32[i] = v
	}
	ctx.charge(n, 0, out.Bytes(), true)
	return out, nil
}

func kernelGroup(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	return ctx.scalar(0), nil
}
