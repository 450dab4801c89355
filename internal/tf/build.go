package tf

import (
	"fmt"

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
	return g.addNode(name, OpConst, nil, Attrs{"value": t.Clone()}, t.Shape(), t.DType())
}

// Placeholder adds an input node. Unknown dims are -1.
func (g *Graph) Placeholder(name string, dtype DType, shape Shape) *Node {
	return g.addNode(name, OpPlaceholder, nil, nil, shape, dtype)
}

// Variable adds a trainable variable with the given initial value.
func (g *Graph) Variable(name string, initial *Tensor) *Node {
	if initial == nil {
		buildErrorf("Variable %q: nil initial value", name)
	}
	return g.addNode(name, OpVariable, nil, Attrs{"initial": initial.Clone()}, initial.Shape(), initial.DType())
}

// binaryShape checks elementwise-compatible shapes: identical, or one
// operand scalar.
func binaryShape(op string, a, b *Node) Shape {
	if len(a.shape) == 0 {
		return b.shape
	}
	if len(b.shape) == 0 {
		return a.shape
	}
	if len(a.shape) != len(b.shape) {
		buildErrorf("%s: rank mismatch %v vs %v", op, a.shape, b.shape)
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] && a.shape[i] != -1 && b.shape[i] != -1 {
			buildErrorf("%s: shape mismatch %v vs %v", op, a.shape, b.shape)
		}
	}
	return a.shape
}

func (g *Graph) binary(op string, a, b *Node) *Node {
	return g.addNode(op, op, []*Node{a, b}, nil, binaryShape(op, a, b), Float32)
}

// Add returns a + b (elementwise; either side may be scalar).
func (g *Graph) Add(a, b *Node) *Node { return g.binary(OpAdd, a, b) }

// Sub returns a - b.
func (g *Graph) Sub(a, b *Node) *Node { return g.binary(OpSub, a, b) }

// Mul returns a * b.
func (g *Graph) Mul(a, b *Node) *Node { return g.binary(OpMul, a, b) }

// Div returns a / b.
func (g *Graph) Div(a, b *Node) *Node { return g.binary(OpDiv, a, b) }

func (g *Graph) unary(op string, x *Node) *Node {
	return g.addNode(op, op, []*Node{x}, nil, x.shape, Float32)
}

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
func (g *Graph) MatMul(a, b *Node) *Node {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		buildErrorf("MatMul: operands must be rank 2, got %v x %v", a.shape, b.shape)
	}
	if a.shape[1] != b.shape[0] && a.shape[1] != -1 && b.shape[0] != -1 {
		buildErrorf("MatMul: inner dims %v x %v", a.shape, b.shape)
	}
	return g.addNode(OpMatMul, OpMatMul, []*Node{a, b}, nil, Shape{a.shape[0], b.shape[1]}, Float32)
}

// BiasAdd adds a [C] bias over the last axis of x [..., C].
func (g *Graph) BiasAdd(x, bias *Node) *Node {
	if len(bias.shape) != 1 {
		buildErrorf("BiasAdd: bias must be rank 1, got %v", bias.shape)
	}
	last := x.shape[len(x.shape)-1]
	if last != bias.shape[0] && last != -1 {
		buildErrorf("BiasAdd: channels %d vs bias %d", last, bias.shape[0])
	}
	return g.addNode(OpBiasAdd, OpBiasAdd, []*Node{x, bias}, nil, x.shape, Float32)
}

// convOut computes the output spatial size for a convolution/pool.
func convOut(in, k, stride int, padding string) int {
	if in < 0 {
		return -1
	}
	return kernels.OutSize(in, k, stride, padding == PaddingSame)
}

// Conv2D convolves x [N,H,W,C] with filter [KH,KW,C,F] (NHWC layout).
func (g *Graph) Conv2D(x, filter *Node, stride int, padding string) *Node {
	if len(x.shape) != 4 || len(filter.shape) != 4 {
		buildErrorf("Conv2D: need NHWC input and KHWCF filter, got %v, %v", x.shape, filter.shape)
	}
	if padding != PaddingSame && padding != PaddingValid {
		buildErrorf("Conv2D: invalid padding %q", padding)
	}
	if x.shape[3] != filter.shape[2] && x.shape[3] != -1 {
		buildErrorf("Conv2D: channels %d vs filter %d", x.shape[3], filter.shape[2])
	}
	out := Shape{
		x.shape[0],
		convOut(x.shape[1], filter.shape[0], stride, padding),
		convOut(x.shape[2], filter.shape[1], stride, padding),
		filter.shape[3],
	}
	return g.addNode(OpConv2D, OpConv2D, []*Node{x, filter},
		Attrs{"stride": int64(stride), "padding": padding}, out, Float32)
}

// MaxPool pools x [N,H,W,C] with a k×k window and the given stride.
func (g *Graph) MaxPool(x *Node, k, stride int) *Node {
	return g.pool(OpMaxPool, x, k, stride)
}

// AvgPool average-pools x [N,H,W,C].
func (g *Graph) AvgPool(x *Node, k, stride int) *Node {
	return g.pool(OpAvgPool, x, k, stride)
}

func (g *Graph) pool(op string, x *Node, k, stride int) *Node {
	if len(x.shape) != 4 {
		buildErrorf("%s: need NHWC input, got %v", op, x.shape)
	}
	out := Shape{x.shape[0], convOut(x.shape[1], k, stride, PaddingValid), convOut(x.shape[2], k, stride, PaddingValid), x.shape[3]}
	return g.addNode(op, op, []*Node{x}, Attrs{"k": int64(k), "stride": int64(stride)}, out, Float32)
}

// Reshape reshapes x to the given shape; one dim may be -1.
func (g *Graph) Reshape(x *Node, shape Shape) *Node {
	ints := make([]int64, len(shape))
	for i, d := range shape {
		ints[i] = int64(d)
	}
	return g.addNode(OpReshape, OpReshape, []*Node{x}, Attrs{"shape": ints}, shape, x.dtype)
}

// Flatten reshapes x [N, ...] to [N, -1].
func (g *Graph) Flatten(x *Node) *Node {
	rest := 1
	known := true
	for _, d := range x.shape[1:] {
		if d < 0 {
			known = false
			break
		}
		rest *= d
	}
	out := Shape{x.shape[0], -1}
	if known {
		out[1] = rest
	}
	return g.addNode("Flatten", OpReshape, []*Node{x}, Attrs{"shape": []int64{-1, int64(out[1])}}, out, x.dtype)
}

// Dropout zeroes a fraction rate of elements during training (scaling the
// survivors by 1/(1-rate)) and is the identity during inference.
func (g *Graph) Dropout(x *Node, rate float64) *Node {
	if rate < 0 || rate >= 1 {
		buildErrorf("Dropout: rate %v out of [0,1)", rate)
	}
	return g.addNode(OpDropout, OpDropout, []*Node{x}, Attrs{"rate": rate}, x.shape, Float32)
}

// SoftmaxCrossEntropy returns the per-example cross-entropy loss [N] for
// logits [N,C] against one-hot (or soft) labels [N,C].
func (g *Graph) SoftmaxCrossEntropy(logits, labels *Node) *Node {
	if len(logits.shape) != 2 || len(labels.shape) != 2 {
		buildErrorf("SoftmaxCrossEntropy: need [N,C] logits and labels, got %v, %v", logits.shape, labels.shape)
	}
	return g.addNode(OpSoftmaxXent, OpSoftmaxXent, []*Node{logits, labels}, nil, Shape{logits.shape[0]}, Float32)
}

// ReduceMean averages all elements to a scalar.
func (g *Graph) ReduceMean(x *Node) *Node {
	return g.addNode(OpReduceMean, OpReduceMean, []*Node{x}, nil, Shape{}, Float32)
}

// ReduceSum sums all elements to a scalar.
func (g *Graph) ReduceSum(x *Node) *Node {
	return g.addNode(OpReduceSum, OpReduceSum, []*Node{x}, nil, Shape{}, Float32)
}

// ArgMax returns the index of the maximum along the last axis of x [N,C]
// as an Int32 tensor [N].
func (g *Graph) ArgMax(x *Node) *Node {
	if len(x.shape) != 2 {
		buildErrorf("ArgMax: need [N,C] input, got %v", x.shape)
	}
	return g.addNode(OpArgMax, OpArgMax, []*Node{x}, nil, Shape{x.shape[0]}, Int32)
}

// Equal compares two Int32 tensors elementwise, yielding Float32 0/1.
func (g *Graph) Equal(a, b *Node) *Node {
	return g.addNode(OpEqual, OpEqual, []*Node{a, b}, nil, binaryShape(OpEqual, a, b), Float32)
}

// Group ties several target nodes together so they can be run as one
// step (e.g. all optimizer updates).
func (g *Graph) Group(name string, deps ...*Node) *Node {
	return g.addNode(name, OpGroup, deps, nil, Shape{}, Float32)
}
