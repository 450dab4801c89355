package tf

import (
	"fmt"
)

// Optimizer builds parameter-update nodes for one (variable, gradient)
// pair. Implementations mirror the TF1 optimizers used by the paper's
// workloads.
type Optimizer interface {
	// Name identifies the optimizer in logs.
	Name() string
	// apply adds the update node for one variable.
	apply(g *Graph, v, grad *Node) *Node
}

// SGD is plain stochastic gradient descent: v ← v − lr·g.
type SGD struct {
	LR float64
}

var _ Optimizer = SGD{}

// Name implements Optimizer.
func (o SGD) Name() string { return "sgd" }

func (o SGD) apply(g *Graph, v, grad *Node) *Node {
	return g.addNode(v.name+"/sgd", OpApplySGD, []*Node{v, grad}, Attrs{"lr": o.LR})
}

// Momentum is SGD with classical momentum.
type Momentum struct {
	LR       float64
	Momentum float64
}

var _ Optimizer = Momentum{}

// Name implements Optimizer.
func (o Momentum) Name() string { return "momentum" }

func (o Momentum) apply(g *Graph, v, grad *Node) *Node {
	m := o.Momentum
	if m == 0 {
		m = 0.9
	}
	return g.addNode(v.name+"/momentum", OpApplyMomentum, []*Node{v, grad}, Attrs{"lr": o.LR, "momentum": m})
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
}

var _ Optimizer = Adam{}

// Name implements Optimizer.
func (o Adam) Name() string { return "adam" }

func (o Adam) apply(g *Graph, v, grad *Node) *Node {
	attrs := Attrs{"lr": o.LR}
	if o.Beta1 != 0 {
		attrs["beta1"] = o.Beta1
	}
	if o.Beta2 != 0 {
		attrs["beta2"] = o.Beta2
	}
	if o.Eps != 0 {
		attrs["eps"] = o.Eps
	}
	return g.addNode(v.name+"/adam", OpApplyAdam, []*Node{v, grad}, attrs)
}

// Minimize builds the gradient subgraph for loss with respect to all
// graph variables and one optimizer apply per variable, returning a
// single group node that runs the whole training step.
func Minimize(g *Graph, opt Optimizer, loss *Node) (*Node, error) {
	vars := g.Variables()
	if len(vars) == 0 {
		return nil, fmt.Errorf("tf: Minimize: graph has no variables")
	}
	grads, err := Gradients(g, loss, vars)
	if err != nil {
		return nil, err
	}
	applies := make([]*Node, 0, len(vars))
	for i, v := range vars {
		if grads[i] == nil {
			continue // loss independent of this variable
		}
		applies = append(applies, opt.apply(g, v, grads[i]))
	}
	if len(applies) == 0 {
		return nil, fmt.Errorf("tf: Minimize: loss depends on no variables")
	}
	return g.Group("train_step", applies...), nil
}

// GradientNodes builds and returns the gradient nodes for all variables
// without applying them — the distributed workers fetch raw gradients and
// push them to the parameter server.
func GradientNodes(g *Graph, loss *Node) ([]*Node, []*Node, error) {
	vars := g.Variables()
	grads, err := Gradients(g, loss, vars)
	if err != nil {
		return nil, nil, err
	}
	var outVars, outGrads []*Node
	for i, v := range vars {
		if grads[i] != nil {
			outVars = append(outVars, v)
			outGrads = append(outGrads, grads[i])
		}
	}
	return outVars, outGrads, nil
}
