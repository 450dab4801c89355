package tf

import (
	"fmt"
)

// Graph is a statically built dataflow graph: named nodes performing
// operations on the outputs of their inputs, exactly the TF1 model the
// paper's secureTF wraps.
type Graph struct {
	nodes  []*Node
	byName map[string]*Node
	seq    map[string]int
}

// Node is one operation instance in a graph.
type Node struct {
	name   string
	op     string
	inputs []*Node
	attrs  Attrs
	shape  Shape // inferred static shape; -1 dims unknown
	dtype  DType
}

// Attrs carries per-node attributes. Values are restricted to the types
// the serializer understands: int64, float64, string, bool, []int64 and
// *Tensor.
type Attrs map[string]any

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]*Node), seq: make(map[string]int)}
}

// Name returns the node's unique name.
func (n *Node) Name() string { return n.name }

// Op returns the node's operation type.
func (n *Node) Op() string { return n.op }

// Shape returns the node's inferred static shape.
func (n *Node) Shape() Shape { return n.shape }

// DType returns the node's output element type.
func (n *Node) DType() DType { return n.dtype }

// Inputs returns the node's inputs (caller must not mutate).
func (n *Node) Inputs() []*Node { return n.inputs }

// attrInt fetches an int64 attribute with a default.
func (n *Node) attrInt(key string, def int64) int64 {
	if v, ok := n.attrs[key].(int64); ok {
		return v
	}
	return def
}

// attrFloat fetches a float64 attribute with a default.
func (n *Node) attrFloat(key string, def float64) float64 {
	if v, ok := n.attrs[key].(float64); ok {
		return v
	}
	return def
}

// attrString fetches a string attribute with a default.
func (n *Node) attrString(key, def string) string {
	if v, ok := n.attrs[key].(string); ok {
		return v
	}
	return def
}

// attrBool fetches a bool attribute with a default.
func (n *Node) attrBool(key string, def bool) bool {
	if v, ok := n.attrs[key].(bool); ok {
		return v
	}
	return def
}

// attrInts fetches an []int64 attribute.
func (n *Node) attrInts(key string) []int64 {
	if v, ok := n.attrs[key].([]int64); ok {
		return v
	}
	return nil
}

// attrTensor fetches a *Tensor attribute.
func (n *Node) attrTensor(key string) *Tensor {
	if v, ok := n.attrs[key].(*Tensor); ok {
		return v
	}
	return nil
}

// AttrInt returns an int64 attribute (exported for converters).
func (n *Node) AttrInt(key string, def int64) int64 { return n.attrInt(key, def) }

// AttrString returns a string attribute (exported for converters).
func (n *Node) AttrString(key, def string) string { return n.attrString(key, def) }

// AttrInts returns an []int64 attribute (exported for converters).
func (n *Node) AttrInts(key string) []int64 { return n.attrInts(key) }

// ConstValue returns a copy of a Const node's tensor (or a Variable's
// initial value), or nil for other ops.
func (n *Node) ConstValue() *Tensor {
	var t *Tensor
	switch n.op {
	case OpConst:
		t = n.attrTensor("value")
	case OpVariable:
		t = n.attrTensor("initial")
	}
	if t == nil {
		return nil
	}
	return t.Clone()
}

// CostScale returns the node's cost multiplier (see SetCostScale).
func (n *Node) CostScale() float64 { return n.attrFloat("cost_scale", 1) }

// SetCostScale sets a multiplier applied to the FLOPs and bytes this node
// reports to the device. The synthetic model zoo uses it to make a
// stand-in layer charge the FLOPs of the paper's real architecture while
// executing a structurally similar but cheaper computation (documented in
// DESIGN.md §2).
func (n *Node) SetCostScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	n.attrs["cost_scale"] = scale
}

// uniqueName allocates a unique node name from a hint.
func (g *Graph) uniqueName(hint string) string {
	if hint == "" {
		hint = "node"
	}
	if _, taken := g.byName[hint]; !taken {
		return hint
	}
	for {
		g.seq[hint]++
		candidate := fmt.Sprintf("%s_%d", hint, g.seq[hint])
		if _, taken := g.byName[candidate]; !taken {
			return candidate
		}
	}
}

// addNode creates and registers a node. Panics on programmer error
// (duplicate explicit name); graph building is construction-time code,
// matching TF1's behaviour of failing fast while defining the graph.
func (g *Graph) addNode(name, op string, inputs []*Node, attrs Attrs, shape Shape, dtype DType) *Node {
	if attrs == nil {
		attrs = Attrs{}
	}
	n := &Node{
		name:   g.uniqueName(name),
		op:     op,
		inputs: inputs,
		attrs:  attrs,
		shape:  shape.Clone(),
		dtype:  dtype,
	}
	g.nodes = append(g.nodes, n)
	g.byName[n.name] = n
	return n
}

// Node returns the node with the given name, or nil.
func (g *Graph) Node(name string) *Node { return g.byName[name] }

// Nodes returns all nodes in insertion order (caller must not mutate).
func (g *Graph) Nodes() []*Node { return g.nodes }

// Variables returns all Variable nodes in insertion order.
func (g *Graph) Variables() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.op == OpVariable {
			out = append(out, n)
		}
	}
	return out
}

// topoSort returns the transitive inputs of roots in execution order.
func topoSort(roots []*Node) ([]*Node, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[*Node]int)
	var order []*Node
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("tf: graph contains a cycle through %q", n.name)
		}
		state[n] = gray
		for _, in := range n.inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		state[n] = black
		order = append(order, n)
		return nil
	}
	for _, r := range roots {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	return order, nil
}
