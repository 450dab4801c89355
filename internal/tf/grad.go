package tf

import (
	"fmt"
	"slices"
)

// Gradients builds the reverse-mode gradient subgraph of a scalar loss
// with respect to wrt, returning one gradient node per entry (nil when
// the loss does not depend on it). This mirrors TF1's static autodiff:
// gradients are ordinary nodes added to the same graph. It adds no node
// that a returned gradient does not read, such as a rule's gradient of a
// placeholder.
func Gradients(g *Graph, loss *Node, wrt []*Node) ([]*Node, error) {
	if len(loss.shape) != 0 {
		return nil, fmt.Errorf("tf: Gradients: loss %q must be scalar, has shape %v", loss.name, loss.shape)
	}
	order, err := topoSort([]*Node{loss})
	if err != nil {
		return nil, err
	}
	start := len(g.nodes)

	grads := make(map[*Node]*Node)
	grads[loss] = g.Const(loss.name+"/grad_seed", Scalar(1))
	readers := make(map[*Node]int)
	for _, n := range order {
		for _, in := range n.inputs {
			readers[in]++
		}
	}
	// masked holds the Relus whose gradient the max pool reading them
	// has masked already (poolMasked): it is their input's as it is.
	masked := make(map[*Node]bool)

	// accumulate adds a contribution to a node's gradient.
	accumulate := func(n, contribution *Node) {
		if contribution == nil {
			return
		}
		if cur, ok := grads[n]; ok {
			grads[n] = g.Add(cur, contribution)
		} else {
			grads[n] = contribution
		}
	}

	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		gradOut, ok := grads[n]
		if !ok {
			continue // loss does not depend on this node
		}
		switch {
		case n.op == OpConst || n.op == OpPlaceholder || n.op == OpVariable:
			continue
		case masked[n]:
			accumulate(n.inputs[0], gradOut)
			continue
		case n.op == OpMaxPool && readers[n.inputs[0]] == 1 && n.inputs[0].op == OpRelu && !slices.Contains(wrt, n.inputs[0]):
			masked[n.inputs[0]] = true
			accumulate(n.inputs[0], poolMasked(g, n, gradOut))
			continue
		}
		fn, ok := gradFuncs[n.op]
		if !ok {
			return nil, fmt.Errorf("tf: no gradient registered for op %s (node %q)", n.op, n.name)
		}
		inputGrads := fn(g, n, gradOut)
		if len(inputGrads) != len(n.inputs) {
			return nil, fmt.Errorf("tf: gradient for %s returned %d grads for %d inputs", n.op, len(inputGrads), len(n.inputs))
		}
		for j, ig := range inputGrads {
			accumulate(n.inputs[j], ig)
		}
	}

	out := make([]*Node, len(wrt))
	var returned []*Node
	for i, v := range wrt {
		if out[i] = grads[v]; out[i] != nil {
			returned = append(returned, out[i])
		}
	}
	read, err := topoSort(returned)
	if err != nil {
		return nil, err
	}
	keep := make(map[*Node]bool, len(read))
	for _, n := range read {
		keep[n] = true
	}
	added := g.nodes[start:]
	g.nodes = g.nodes[:start]
	for _, n := range added {
		if keep[n] {
			g.nodes = append(g.nodes, n)
		} else {
			delete(g.byName, n.name)
		}
	}
	return out, nil
}

// poolMasked is the gradient of a Relu's output y that max pool p
// alone reads, masked by the Relu: MaxPoolGrad(ReluGrad(gradOut, p), y),
// which is ReluGrad(MaxPoolGrad(gradOut, y), y) bit for bit with the mask
// run over the pool's output, a quarter of y's elements at 2×2. The
// argmax that routes gradOut[o] to y[i] picked p[o] == y[i] bit for
// bit, so p[o] > 0 exactly where y[i] > 0; an element of y no window
// picked, or picked only where the mask cleared the gradient, is +0 + +0
// or +0 on both sides.
func poolMasked(g *Graph, p, gradOut *Node) *Node {
	y := p.inputs[0]
	relu := g.addNode(y.name+"/grad", OpReluGrad, []*Node{gradOut, p}, nil)
	return g.addNode(p.name+"/grad", OpMaxPoolGrad, []*Node{relu, y}, Attrs{"forward": p.name})
}

// gradFunc produces the gradients flowing into each input of n, given the
// gradient flowing out of n.
type gradFunc func(g *Graph, n *Node, gradOut *Node) []*Node

// reduceIfScalar adapts a gradient for a scalar operand of a broadcasted
// binary op: the incoming gradient must be summed to a scalar.
func reduceIfScalar(g *Graph, operand, grad *Node) *Node {
	if len(operand.shape) == 0 && len(grad.shape) != 0 {
		return g.ReduceSum(grad)
	}
	return grad
}

var gradFuncs = map[string]gradFunc{
	OpAdd: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{
			reduceIfScalar(g, n.inputs[0], gradOut),
			reduceIfScalar(g, n.inputs[1], gradOut),
		}
	},
	OpSub: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{
			reduceIfScalar(g, n.inputs[0], gradOut),
			reduceIfScalar(g, n.inputs[1], g.Neg(gradOut)),
		}
	},
	OpMul: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{
			reduceIfScalar(g, n.inputs[0], g.Mul(gradOut, n.inputs[1])),
			reduceIfScalar(g, n.inputs[1], g.Mul(gradOut, n.inputs[0])),
		}
	},
	OpDiv: func(g *Graph, n *Node, gradOut *Node) []*Node {
		a, b := n.inputs[0], n.inputs[1]
		da := g.Div(gradOut, b)
		db := g.Neg(g.Div(g.Mul(gradOut, a), g.Square(b)))
		return []*Node{reduceIfScalar(g, a, da), reduceIfScalar(g, b, db)}
	},
	OpNeg: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.Neg(gradOut)}
	},
	OpSquare: func(g *Graph, n *Node, gradOut *Node) []*Node {
		two := g.Const(n.name+"/grad_two", Scalar(2))
		return []*Node{g.Mul(g.Mul(gradOut, n.inputs[0]), two)}
	},
	OpSqrt: func(g *Graph, n *Node, gradOut *Node) []*Node {
		two := g.Const(n.name+"/grad_two", Scalar(2))
		return []*Node{g.Div(gradOut, g.Mul(n, two))}
	},
	OpExp: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.Mul(gradOut, n)}
	},
	OpLog: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.Div(gradOut, n.inputs[0])}
	},
	OpRelu: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpReluGrad, []*Node{gradOut, n}, nil)}
	},
	OpSigmoid: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpSigmoidGrad, []*Node{gradOut, n}, nil)}
	},
	OpTanh: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpTanhGrad, []*Node{gradOut, n}, nil)}
	},
	OpMatMul: func(g *Graph, n *Node, gradOut *Node) []*Node {
		// dA = dC × Bᵀ ; dB = Aᵀ × dC (non-transposed forward only).
		da := g.addNode(n.name+"/grad_a", OpMatMul, []*Node{gradOut, n.inputs[1]}, Attrs{"transpose_b": true})
		db := g.addNode(n.name+"/grad_b", OpMatMul, []*Node{n.inputs[0], gradOut}, Attrs{"transpose_a": true})
		return []*Node{da, db}
	},
	OpBiasAdd: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{gradOut, g.addNode(n.name+"/grad_bias", OpBiasAddGrad, []*Node{gradOut}, nil)}
	},
	OpConv2D: func(g *Graph, n *Node, gradOut *Node) []*Node {
		x, filter := n.inputs[0], n.inputs[1]
		attrs := Attrs{"stride": attr(n, "stride", int64(1)), "padding": attr(n, "padding", PaddingValid)}
		dx := g.addNode(n.name+"/grad_input", OpConv2DGradInput, []*Node{gradOut, x, filter}, attrs)
		attrs2 := Attrs{"stride": attr(n, "stride", int64(1)), "padding": attr(n, "padding", PaddingValid)}
		df := g.addNode(n.name+"/grad_filter", OpConv2DGradFilter, []*Node{gradOut, x, filter}, attrs2)
		return []*Node{dx, df}
	},
	OpMaxPool: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpMaxPoolGrad, []*Node{gradOut, n.inputs[0]}, Attrs{"forward": n.name})}
	},
	OpAvgPool: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpAvgPoolGrad, []*Node{gradOut, n.inputs[0]},
			Attrs{"k": attr(n, "k", int64(2)), "stride": attr(n, "stride", int64(2))})}
	},
	OpSoftmaxXent: func(g *Graph, n *Node, gradOut *Node) []*Node {
		dLogits := g.addNode(n.name+"/grad", OpSoftmaxXentGrad, []*Node{gradOut, n.inputs[0], n.inputs[1]}, Attrs{"forward": n.name})
		// Gradients do not flow into labels.
		return []*Node{dLogits, nil}
	},
	OpReshape: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.Reshape(gradOut, n.inputs[0].shape)}
	},
	OpDropout: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpDropoutGrad, []*Node{gradOut}, Attrs{"forward": n.name})}
	},
	OpReduceMean: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpBroadcastLike, []*Node{gradOut, n.inputs[0]}, Attrs{"scale": "mean"})}
	},
	OpReduceSum: func(g *Graph, n *Node, gradOut *Node) []*Node {
		return []*Node{g.addNode(n.name+"/grad", OpBroadcastLike, []*Node{gradOut, n.inputs[0]}, nil)}
	},
}
