package tf

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/securetf/securetf/internal/tf/kernels"
)

// Operation type names. They are part of the serialized graph format.
const (
	OpConst       = "Const"
	OpPlaceholder = "Placeholder"
	OpVariable    = "Variable"

	OpAdd    = "Add"
	OpSub    = "Sub"
	OpMul    = "Mul"
	OpDiv    = "Div"
	OpNeg    = "Neg"
	OpSquare = "Square"
	OpSqrt   = "Sqrt"
	OpExp    = "Exp"
	OpLog    = "Log"

	OpMatMul  = "MatMul"
	OpBiasAdd = "BiasAdd"
	OpConv2D  = "Conv2D"
	OpMaxPool = "MaxPool"
	OpAvgPool = "AvgPool"

	OpRelu    = "Relu"
	OpSigmoid = "Sigmoid"
	OpTanh    = "Tanh"
	OpSoftmax = "Softmax"

	OpSoftmaxXent = "SoftmaxCrossEntropyWithLogits"

	OpReshape = "Reshape"
	OpDropout = "Dropout"

	OpReduceMean = "ReduceMean"
	OpReduceSum  = "ReduceSum"
	OpArgMax     = "ArgMax"
	OpEqual      = "Equal"

	OpBroadcastLike = "BroadcastLike"

	OpApplySGD      = "ApplyGradientDescent"
	OpApplyMomentum = "ApplyMomentum"
	OpApplyAdam     = "ApplyAdam"
	OpGroup         = "Group"

	// Gradient helper ops (generated by Gradients, also serializable).
	OpReluGrad         = "ReluGrad"
	OpSigmoidGrad      = "SigmoidGrad"
	OpTanhGrad         = "TanhGrad"
	OpBiasAddGrad      = "BiasAddGrad"
	OpMaxPoolGrad      = "MaxPoolGrad"
	OpAvgPoolGrad      = "AvgPoolGrad"
	OpConv2DGradInput  = "Conv2DBackpropInput"
	OpConv2DGradFilter = "Conv2DBackpropFilter"
	OpSoftmaxXentGrad  = "SoftmaxCrossEntropyGrad"
	OpDropoutGrad      = "DropoutGrad"
)

// Padding modes for Conv2D and pooling.
const (
	PaddingSame  = "SAME"
	PaddingValid = "VALID"
)

// opRule is an op's contract, and the one place it is written: how many
// inputs the op takes, the dtype they share, the dtype it yields, the
// shape it derives from theirs, and the kernel that computes it. The
// builder and UnmarshalGraph apply the rule to declared shapes, in which
// a dim of -1 is unknown and matches any (Node.derive); every Run applies
// it again, before any kernel runs, to the shapes its feeds and sources
// have (Session.shape), and lays out the storage the shapes call for,
// which is the output's and, where its kernel draws more, what opMemory
// declares.
type opRule struct {
	arity  int   // -1: any number
	in     DType // every input's; 0: any, the same for all
	out    DType // 0: input 0's or, for a source, the one it declares
	shape  shapeFunc
	kernel kernelFunc // nil for a source, whose value a Run is given
}

// shapeFunc appends n's output shape, given its inputs', to dst, which
// is empty.
type shapeFunc func(n *Node, in []Shape, dst Shape) (Shape, error)

var opRules = map[string]opRule{
	OpConst:       {0, 0, 0, holds("value"), nil},
	OpVariable:    {0, 0, 0, holds("initial"), nil},
	OpPlaceholder: {0, 0, 0, declared, nil},

	OpAdd:     {2, Float32, Float32, broadcast, kernelBinary(func(a, b float32) float32 { return a + b })},
	OpSub:     {2, Float32, Float32, broadcast, kernelBinary(func(a, b float32) float32 { return a - b })},
	OpMul:     {2, Float32, Float32, broadcast, kernelBinary(func(a, b float32) float32 { return a * b })},
	OpDiv:     {2, Float32, Float32, broadcast, kernelBinary(func(a, b float32) float32 { return a / b })},
	OpNeg:     {1, Float32, Float32, same, kernelUnary(func(x float32) float32 { return -x })},
	OpSquare:  {1, Float32, Float32, same, kernelUnary(func(x float32) float32 { return x * x })},
	OpSqrt:    {1, Float32, Float32, same, kernelUnary(func(x float32) float32 { return float32(math.Sqrt(float64(x))) })},
	OpExp:     {1, Float32, Float32, same, kernelUnary(func(x float32) float32 { return float32(math.Exp(float64(x))) })},
	OpLog:     {1, Float32, Float32, same, kernelUnary(func(x float32) float32 { return float32(math.Log(float64(x))) })},
	OpRelu:    {1, Float32, Float32, same, kernelRelu},
	OpSigmoid: {1, Float32, Float32, same, kernelUnary(sigmoid32)},
	OpTanh:    {1, Float32, Float32, same, kernelUnary(func(x float32) float32 { return float32(math.Tanh(float64(x))) })},
	OpSoftmax: {1, Float32, Float32, same, kernelSoftmax},

	OpMatMul:        {2, Float32, Float32, matMulShape, kernelMatMul},
	OpBiasAdd:       {2, Float32, Float32, biasAddShape, kernelBiasAdd},
	OpConv2D:        {2, Float32, Float32, conv2DShape, kernelConv2D},
	OpMaxPool:       {1, Float32, Float32, poolShape, kernelPool(true)},
	OpAvgPool:       {1, Float32, Float32, poolShape, kernelPool(false)},
	OpSoftmaxXent:   {2, Float32, Float32, rowsShape, kernelSoftmaxXent},
	OpReshape:       {1, 0, 0, reshapeShape, kernelReshape},
	OpDropout:       {1, Float32, Float32, dropoutShape, kernelDropout},
	OpReduceMean:    {1, Float32, Float32, scalarShape, kernelReduce(true)},
	OpReduceSum:     {1, Float32, Float32, scalarShape, kernelReduce(false)},
	OpArgMax:        {1, Float32, Int32, rowsShape, kernelArgMax},
	OpEqual:         {2, 0, Float32, matching(same, 0), kernelEqual},
	OpBroadcastLike: {2, Float32, Float32, matching(scalarShape, 1), kernelBroadcastLike},
	OpGroup:         {-1, 0, Float32, scalarShape, kernelGroup},

	OpApplySGD:      {2, Float32, Float32, applyShape, kernelApplySGD},
	OpApplyMomentum: {2, Float32, Float32, applyShape, kernelApplyMomentum},
	OpApplyAdam:     {2, Float32, Float32, applyShape, kernelApplyAdam},

	// A gradient op's input 0 is the gradient of its forward op's output.
	OpReluGrad:         {2, Float32, Float32, matching(same, 1), kernelReluGrad},
	OpSigmoidGrad:      {2, Float32, Float32, matching(same, 1), kernelOutputGrad(func(g, y float32) float32 { return g * y * (1 - y) })},
	OpTanhGrad:         {2, Float32, Float32, matching(same, 1), kernelOutputGrad(func(g, y float32) float32 { return g * (1 - float32(y*y)) })},
	OpBiasAddGrad:      {1, Float32, Float32, biasAddGradShape, kernelBiasAddGrad},
	OpMaxPoolGrad:      {2, Float32, Float32, maxPoolGradShape, kernelMaxPoolGrad},
	OpAvgPoolGrad:      {2, Float32, Float32, matching(poolShape, 1), kernelAvgPoolGrad},
	OpConv2DGradInput:  {3, Float32, Float32, matching(conv2DShape, 1), kernelConv2DGradInput},
	OpConv2DGradFilter: {3, Float32, Float32, matching(conv2DShape, 2), kernelConv2DGradFilter},
	OpSoftmaxXentGrad:  {3, Float32, Float32, matching(rowsShape, 1), kernelSoftmaxXentGrad},
	OpDropoutGrad:      {1, Float32, Float32, same, kernelDropoutGrad},
}

// derive applies n's rule to its inputs' dtypes and shapes, and returns
// n's.
func (n *Node) derive() (Shape, DType, error) {
	rule, ok := opRules[n.op]
	if !ok {
		return nil, 0, fmt.Errorf("unknown op")
	}
	if rule.arity >= 0 && len(n.inputs) != rule.arity {
		return nil, 0, fmt.Errorf("%d inputs, not %d", len(n.inputs), rule.arity)
	}
	shapes := make([]Shape, len(n.inputs))
	for i, in := range n.inputs {
		if want := cmp.Or(rule.in, n.inputs[0].dtype); in.dtype != want {
			return nil, 0, fmt.Errorf("input %d is %v, not %v", i, in.dtype, want)
		}
		shapes[i] = in.shape
	}
	dtype := cmp.Or(rule.out, n.dtype) // a source declares its own
	if rule.out == 0 && len(n.inputs) > 0 {
		dtype = n.inputs[0].dtype
	}
	shape, err := rule.shape(n, shapes, nil)
	return shape, dtype, err
}

// agree reports whether two dims can be one: equal, or either unknown.
func agree(a, b int) bool { return a == b || a < 0 || b < 0 }

// alike reports whether two shapes can be one.
func alike(a, b Shape) bool { return slices.EqualFunc(a, b, agree) }

// refuse is a rule's error for input shapes its op cannot take.
func refuse(in []Shape) (Shape, error) { return nil, fmt.Errorf("input shapes %v", in) }

// holds is the rule of a source whose value is the tensor attribute key:
// a tensor of the node's declared dtype and shape.
func holds(key string) shapeFunc {
	return func(n *Node, _ []Shape, dst Shape) (Shape, error) {
		if t := attr[*Tensor](n, key, nil); t == nil || t.dtype != n.dtype || !t.shape.Equal(n.shape) {
			return nil, fmt.Errorf("%q is not a %v %v tensor", key, n.dtype, n.shape)
		}
		return append(dst, n.shape...), nil
	}
}

// declared is a placeholder's rule: it is what it declares. At Run a
// feed fits that (Node.fits).
func declared(n *Node, _ []Shape, dst Shape) (Shape, error) {
	if slices.ContainsFunc(n.shape, func(d int) bool { return d < -1 }) || (n.dtype != Float32 && n.dtype != Int32) {
		return nil, fmt.Errorf("declares %v %v", n.dtype, n.shape)
	}
	return append(dst, n.shape...), nil
}

// same yields input 0's shape.
func same(_ *Node, in []Shape, dst Shape) (Shape, error) { return append(dst, in[0]...), nil }

// scalarShape yields a scalar.
func scalarShape(_ *Node, _ []Shape, dst Shape) (Shape, error) { return dst, nil }

// matching is the rule of an op whose input 0 is shaped as f derives
// from the rest of its inputs: a gradient and the forward op's operands,
// Equal's two sides, or BroadcastLike's scalar. It yields input i's
// shape.
func matching(f shapeFunc, i int) shapeFunc {
	return func(n *Node, in []Shape, dst Shape) (Shape, error) {
		if want, err := f(n, in[1:], dst); err != nil || !alike(in[0], want) {
			return refuse(in)
		}
		return append(dst, in[i]...), nil
	}
}

// broadcast is the elementwise ops' rule: operands of one shape, or
// either a scalar.
func broadcast(_ *Node, in []Shape, dst Shape) (Shape, error) {
	switch a, b := in[0], in[1]; {
	case len(a) == 0:
		return append(dst, b...), nil
	case len(b) == 0 || alike(a, b):
		return append(dst, a...), nil
	}
	return refuse(in)
}

// matMulShape multiplies a [m,k] by b [k,n], either read transposed.
func matMulShape(n *Node, in []Shape, dst Shape) (Shape, error) {
	a, b := in[0], in[1]
	if len(a) != 2 || len(b) != 2 {
		return refuse(in)
	}
	if attr(n, "transpose_a", false) {
		a = Shape{a[1], a[0]}
	}
	if attr(n, "transpose_b", false) {
		b = Shape{b[1], b[0]}
	}
	if !agree(a[1], b[0]) {
		return refuse(in)
	}
	return append(dst, a[0], b[1]), nil
}

// biasAddShape adds a [C] bias over x [..., C].
func biasAddShape(_ *Node, in []Shape, dst Shape) (Shape, error) {
	if x, bias := in[0], in[1]; len(x) == 0 || len(bias) != 1 || !agree(x[len(x)-1], bias[0]) {
		return refuse(in)
	}
	return append(dst, in[0]...), nil
}

// biasAddGradShape sums a gradient [..., C] to [C].
func biasAddGradShape(_ *Node, in []Shape, dst Shape) (Shape, error) {
	if len(in[0]) == 0 {
		return refuse(in)
	}
	return append(dst, in[0][len(in[0])-1]), nil
}

// windowed appends the shape [N,OH,OW,c] of moving a kh×kw window over x
// [N,H,W,C] at stride, an extent -1 where x's or the window's is.
func windowed(dst, x Shape, kh, kw, c, stride int, same bool) (Shape, error) {
	if stride < 1 {
		return nil, fmt.Errorf("stride %d", stride)
	}
	dst = append(dst, x[0], -1, -1, c)
	for i, k := range [2]int{kh, kw} {
		if in := x[1+i]; in >= 0 && k >= 0 {
			if dst[1+i] = kernels.OutSize(in, k, stride, same); dst[1+i] < 1 || (!same && k > in) {
				return nil, fmt.Errorf("a %dx%d window at stride %d does not fit %v", kh, kw, stride, x)
			}
		}
	}
	return dst, nil
}

// conv2DShape convolves x [N,H,W,C] with a filter [KH,KW,C,F].
func conv2DShape(n *Node, in []Shape, dst Shape) (Shape, error) {
	x, f, padding := in[0], in[1], attr(n, "padding", PaddingValid)
	if len(x) != 4 || len(f) != 4 || !agree(x[3], f[2]) || (padding != PaddingSame && padding != PaddingValid) {
		return refuse(in)
	}
	return windowed(dst, x, f[0], f[1], f[3], int(attr(n, "stride", int64(1))), padding == PaddingSame)
}

// poolShape pools x [N,H,W,C] with a k×k VALID window.
func poolShape(n *Node, in []Shape, dst Shape) (Shape, error) {
	if k := int(attr(n, "k", int64(2))); len(in[0]) == 4 && k >= 1 {
		return windowed(dst, in[0], k, k, in[0][3], int(attr(n, "stride", int64(2))), false)
	}
	return refuse(in)
}

// maxPoolGradShape routes a gradient [N,OH,OW,C] to x [N,H,W,C] by the
// forward pool's cache, which holds its window (execCtx.forward).
func maxPoolGradShape(_ *Node, in []Shape, dst Shape) (Shape, error) {
	if len(in[0]) != 4 || len(in[1]) != 4 {
		return refuse(in)
	}
	return append(dst, in[1]...), nil
}

// rowsShape is one value [N] per row of x [N,C]: ArgMax's, or the loss
// of logits x against labels alike.
func rowsShape(_ *Node, in []Shape, dst Shape) (Shape, error) {
	if len(in[0]) != 2 || (len(in) == 2 && !alike(in[0], in[1])) {
		return refuse(in)
	}
	return append(dst, in[0][0]), nil
}

// reshapeShape is the "shape" attribute, its one -1 resolved when the
// input's element count is known.
func reshapeShape(n *Node, in []Shape, dst Shape) (Shape, error) {
	for _, d := range attr[[]int64](n, "shape", nil) {
		dst = append(dst, int(d))
	}
	return dst, resolveReshape(in[0].NumElements(), dst)
}

func dropoutShape(n *Node, in []Shape, dst Shape) (Shape, error) {
	if rate := attr(n, "rate", 0.5); !(rate >= 0 && rate < 1) {
		return nil, fmt.Errorf("rate %v out of [0,1)", rate)
	}
	return append(dst, in[0]...), nil
}

// applyShape updates variable input 0 by a gradient of its shape.
func applyShape(n *Node, in []Shape, dst Shape) (Shape, error) {
	if n.inputs[0].op != OpVariable || !alike(in[0], in[1]) {
		return nil, fmt.Errorf("a gradient %v for a %s %v, not a variable of its shape", in[1], n.inputs[0].op, in[0])
	}
	return append(dst, in[0]...), nil
}

// buildErrorf panics with a graph-construction error. Graph building is
// construction-time code (like regexp.MustCompile): structural mistakes
// are programmer errors and fail fast with a clear message.
func buildErrorf(format string, args ...any) {
	panic(fmt.Sprintf("tf: "+format, args...))
}

// Const adds a constant node holding a copy of t.
func (g *Graph) Const(name string, t *Tensor) *Node {
	if t == nil {
		buildErrorf("Const %q: nil tensor", name)
	}
	return g.add(&Node{name: g.uniqueName(name), op: OpConst, attrs: Attrs{"value": t.Clone()}, shape: t.Shape(), dtype: t.DType()})
}

// Placeholder adds an input node. Unknown dims are -1.
func (g *Graph) Placeholder(name string, dtype DType, shape Shape) *Node {
	return g.add(&Node{name: g.uniqueName(name), op: OpPlaceholder, shape: shape, dtype: dtype})
}

// Variable adds a trainable variable with the given initial value. The
// graph keeps initial itself, not a copy: the caller hands it over and
// must not write to it afterwards. Every session clones it into its own
// storage, and ConstValue returns a copy.
func (g *Graph) Variable(name string, initial *Tensor) *Node {
	if initial == nil {
		buildErrorf("Variable %q: nil initial value", name)
	}
	return g.add(&Node{name: g.uniqueName(name), op: OpVariable, attrs: Attrs{"initial": initial}, shape: initial.Shape(), dtype: initial.DType()})
}

func (g *Graph) binary(op string, a, b *Node) *Node { return g.addNode(op, op, []*Node{a, b}, nil) }

// Add returns a + b (elementwise; either side may be scalar).
func (g *Graph) Add(a, b *Node) *Node { return g.binary(OpAdd, a, b) }

// Sub returns a - b.
func (g *Graph) Sub(a, b *Node) *Node { return g.binary(OpSub, a, b) }

// Mul returns a * b.
func (g *Graph) Mul(a, b *Node) *Node { return g.binary(OpMul, a, b) }

// Div returns a / b.
func (g *Graph) Div(a, b *Node) *Node { return g.binary(OpDiv, a, b) }

func (g *Graph) unary(op string, x *Node) *Node { return g.addNode(op, op, []*Node{x}, nil) }

// Neg returns -x.
func (g *Graph) Neg(x *Node) *Node { return g.unary(OpNeg, x) }

// Square returns x².
func (g *Graph) Square(x *Node) *Node { return g.unary(OpSquare, x) }

// Sqrt returns √x.
func (g *Graph) Sqrt(x *Node) *Node { return g.unary(OpSqrt, x) }

// Exp returns eˣ.
func (g *Graph) Exp(x *Node) *Node { return g.unary(OpExp, x) }

// Log returns ln(x).
func (g *Graph) Log(x *Node) *Node { return g.unary(OpLog, x) }

// Relu returns max(x, 0).
func (g *Graph) Relu(x *Node) *Node { return g.unary(OpRelu, x) }

// Sigmoid returns 1/(1+e⁻ˣ).
func (g *Graph) Sigmoid(x *Node) *Node { return g.unary(OpSigmoid, x) }

// Tanh returns tanh(x).
func (g *Graph) Tanh(x *Node) *Node { return g.unary(OpTanh, x) }

// Softmax normalizes the last axis to a probability distribution.
func (g *Graph) Softmax(x *Node) *Node { return g.unary(OpSoftmax, x) }

// MatMul multiplies a [m,k] by b [k,n].
func (g *Graph) MatMul(a, b *Node) *Node { return g.binary(OpMatMul, a, b) }

// BiasAdd adds a [C] bias over the last axis of x [..., C].
func (g *Graph) BiasAdd(x, bias *Node) *Node { return g.binary(OpBiasAdd, x, bias) }

// Conv2D convolves x [N,H,W,C] with filter [KH,KW,C,F] (NHWC layout).
func (g *Graph) Conv2D(x, filter *Node, stride int, padding string) *Node {
	return g.addNode(OpConv2D, OpConv2D, []*Node{x, filter}, Attrs{"stride": int64(stride), "padding": padding})
}

// MaxPool pools x [N,H,W,C] with a k×k window and the given stride.
func (g *Graph) MaxPool(x *Node, k, stride int) *Node { return g.pool(OpMaxPool, x, k, stride) }

// AvgPool average-pools x [N,H,W,C].
func (g *Graph) AvgPool(x *Node, k, stride int) *Node { return g.pool(OpAvgPool, x, k, stride) }

func (g *Graph) pool(op string, x *Node, k, stride int) *Node {
	return g.addNode(op, op, []*Node{x}, Attrs{"k": int64(k), "stride": int64(stride)})
}

// Reshape reshapes x to the given shape; one dim may be -1.
func (g *Graph) Reshape(x *Node, shape Shape) *Node {
	ints := make([]int64, len(shape))
	for i, d := range shape {
		ints[i] = int64(d)
	}
	return g.addNode(OpReshape, OpReshape, []*Node{x}, Attrs{"shape": ints})
}

// Flatten reshapes x [N, ...] to [N, -1].
func (g *Graph) Flatten(x *Node) *Node {
	return g.addNode("Flatten", OpReshape, []*Node{x}, Attrs{"shape": []int64{-1, int64(x.shape[1:].NumElements())}})
}

// Dropout zeroes a fraction rate of elements during training (scaling the
// survivors by 1/(1-rate)) and is the identity during inference.
func (g *Graph) Dropout(x *Node, rate float64) *Node {
	return g.addNode(OpDropout, OpDropout, []*Node{x}, Attrs{"rate": rate})
}

// SoftmaxCrossEntropy returns the per-example cross-entropy loss [N] for
// logits [N,C] against one-hot (or soft) labels [N,C].
func (g *Graph) SoftmaxCrossEntropy(logits, labels *Node) *Node {
	return g.binary(OpSoftmaxXent, logits, labels)
}

// ReduceMean averages all elements to a scalar.
func (g *Graph) ReduceMean(x *Node) *Node { return g.unary(OpReduceMean, x) }

// ReduceSum sums all elements to a scalar.
func (g *Graph) ReduceSum(x *Node) *Node { return g.unary(OpReduceSum, x) }

// ArgMax returns the index of the maximum along the last axis of x [N,C]
// as an Int32 tensor [N].
func (g *Graph) ArgMax(x *Node) *Node { return g.unary(OpArgMax, x) }

// Equal compares two Int32 tensors elementwise, yielding Float32 0/1.
func (g *Graph) Equal(a, b *Node) *Node { return g.binary(OpEqual, a, b) }

// Group ties several target nodes together so they can be run as one
// step (e.g. all optimizer updates).
func (g *Graph) Group(name string, deps ...*Node) *Node {
	return g.addNode(name, OpGroup, deps, nil)
}
