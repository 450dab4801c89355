package tf

import (
	"fmt"
	"testing"
)

// convTrainingGraph is a training graph over a convolution. It carries
// every attribute kind — integers and strings (Conv2D), integer lists
// (Flatten), floats (Dropout, the optimizer), booleans (the MatMul
// gradients) and tensors (the variables) — and every forward cache.
func convTrainingGraph() *Graph {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 6, 6, 1})
	y := g.Placeholder("y", Float32, Shape{-1, 3})
	h := g.Flatten(g.MaxPool(g.Conv2D(x, g.Variable("k", RandNormal(Shape{3, 3, 1, 2}, 0.5, 1)), 1, PaddingSame), 2, 2))
	logits := g.MatMul(g.Dropout(h, 0.5), g.Variable("w", RandNormal(Shape{18, 3}, 0.5, 2)))
	if _, err := Minimize(g, SGD{LR: 0.1}, g.ReduceMean(g.SoftmaxCrossEntropy(logits, y))); err != nil {
		panic(err)
	}
	return g
}

// rewirings encodes g once for every input of every node wired to each
// node before it, its own input included, keyed "node.input=target".
func rewirings(g *Graph) map[string][]byte {
	out := make(map[string][]byte)
	for i, n := range g.nodes {
		for j, was := range n.inputs {
			for _, target := range g.nodes[:i] {
				n.inputs[j] = target
				raw, err := MarshalGraph(g)
				if err != nil {
					panic(err)
				}
				out[fmt.Sprintf("%s.%d=%s", n.name, j, target.name)] = raw
			}
			n.inputs[j] = was
		}
	}
	return out
}

// hostileGraphs encodes graphs in which one node's inputs break its op's
// contract although each node declares a plausible shape: an optimizer
// apply whose gradient is longer than its variable, and an Int32 ArgMax
// fed into Relu.
func hostileGraphs() map[string][]byte {
	graphs := make(map[string]*Graph)
	for _, opt := range []Optimizer{Momentum{LR: 0.1}, Adam{LR: 0.1}} {
		g := NewGraph()
		v := g.Variable("v", Fill(Shape{2}, 1))
		long := g.Placeholder("long", Float32, Shape{3})
		opt.apply(g, v, g.Placeholder("grad", Float32, Shape{2})).inputs[1] = long
		graphs[opt.Name()+" with a gradient longer than its variable"] = g
	}
	g := NewGraph()
	argmax := g.ArgMax(g.Placeholder("x", Float32, Shape{-1, 3}))
	g.Relu(g.Placeholder("r", Float32, Shape{-1})).inputs[0] = argmax
	graphs["an Int32 ArgMax fed into Relu"] = g
	out := make(map[string][]byte)
	for name, g := range graphs {
		raw, err := MarshalGraph(g)
		if err != nil {
			panic(err)
		}
		out[name] = raw
	}
	return out
}

// runEvery loads data and runs each of its nodes alone in training
// mode, every placeholder fed at its declared shape with -1 read as 2.
// It reports whether the graph loaded, how many Runs erred, and the
// first fault: a panic, or a result other than the dtype and shape its
// node declares.
func runEvery(data []byte) (loaded bool, erred int, fault string) {
	g, err := UnmarshalGraph(data)
	if err != nil {
		return false, 0, ""
	}
	feeds := Feeds{}
	for i, n := range g.nodes {
		if n.op != OpPlaceholder {
			continue
		}
		shape, count := n.shape.Clone(), 1
		for k, d := range shape {
			if d < 0 {
				shape[k] = 2
			}
			if count *= shape[k]; shape[k] > 1<<12 || count > 1<<12 {
				return true, 0, "" // too large to feed
			}
		}
		feeds[n] = NewTensor(n.dtype, shape)
		if n.dtype == Float32 {
			feeds[n] = RandNormal(shape, 1, int64(i))
		}
	}
	s := NewSession(g)
	defer s.Close()
	for _, n := range g.nodes {
		if f := runOne(s, feeds, n); f == errored {
			erred++
		} else if fault == "" {
			fault = f
		}
	}
	return true, erred, fault
}

// errored is runOne's report of a Run that returned an error.
const errored = "error"

// runOne runs n alone and reports a fault as runEvery does, errored, or
// nothing.
func runOne(s *Session, feeds Feeds, n *Node) (fault string) {
	defer func() {
		if p := recover(); p != nil {
			fault = fmt.Sprintf("%q panicked: %v", n.name, p)
		}
	}()
	out, err := s.Run(feeds, []*Node{n}, Training())
	if err != nil {
		return errored
	}
	r := out[0]
	ok := r.dtype == n.dtype && len(r.shape) == len(n.shape)
	for k := 0; ok && k < len(n.shape); k++ {
		ok = n.shape[k] < 0 || n.shape[k] == r.shape[k]
	}
	if !ok {
		return fmt.Sprintf("%q gave %v %v, declares %v %v", n.name, r.dtype, r.shape, n.dtype, n.shape)
	}
	return ""
}

// TestRewiredGraphsNeverPanic is the class of hostile graph a frozen
// model file can hold: each input of each node of a training graph
// rewired to each earlier node. Every variant is refused at load or runs
// every node to a result its node declares or an error, and never
// panics; the hostile graphs do not run at all.
func TestRewiredGraphsNeverPanic(t *testing.T) {
	var refused, erred, ran int
	for name, raw := range rewirings(convTrainingGraph()) {
		loaded, errs, fault := runEvery(raw)
		if fault != "" {
			t.Errorf("%s: %s", name, fault)
		}
		switch {
		case !loaded:
			refused++
		case errs > 0:
			erred++
		default:
			ran++
		}
	}
	t.Logf("rewirings: %d refused at load, %d loaded with a Run that erred, %d ran", refused, erred, ran)
	for name, raw := range hostileGraphs() {
		if loaded, errs, fault := runEvery(raw); fault != "" || (loaded && errs == 0) {
			t.Errorf("%s: loaded %v, %d Runs erred, fault %q", name, loaded, errs, fault)
		}
	}
}

// FuzzGraphRun: a graph that loads runs each of its nodes, every
// placeholder fed at its declared shape, to a result its node declares
// or an error, and never panics (runEvery).
func FuzzGraphRun(f *testing.F) {
	dense := NewGraph()
	buildTestModel(dense)
	for _, g := range []*Graph{NewGraph(), dense, convTrainingGraph()} {
		raw, err := MarshalGraph(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// The rewirings that panicked in Run before a Run applied each op's
	// rule, and the hostile graphs.
	rewired := rewirings(convTrainingGraph())
	for _, name := range []string{
		"Dropout/grad.0=MatMul/grad_b",
		"ReduceMean/grad.1=ReduceMean", "ReduceMean/grad.1=ReduceMean/grad_seed",
		"SoftmaxCrossEntropyWithLogits/grad.0=ReduceMean", "SoftmaxCrossEntropyWithLogits/grad.0=ReduceMean/grad_seed",
		"SoftmaxCrossEntropyWithLogits/grad.1=Conv2D", "SoftmaxCrossEntropyWithLogits/grad.1=Dropout",
		"SoftmaxCrossEntropyWithLogits/grad.1=Flatten", "SoftmaxCrossEntropyWithLogits/grad.1=MaxPool",
		"SoftmaxCrossEntropyWithLogits/grad.1=k", "SoftmaxCrossEntropyWithLogits/grad.1=w", "SoftmaxCrossEntropyWithLogits/grad.1=x",
		"SoftmaxCrossEntropyWithLogits/grad.2=ReduceMean", "SoftmaxCrossEntropyWithLogits/grad.2=ReduceMean/grad",
		"SoftmaxCrossEntropyWithLogits/grad.2=ReduceMean/grad_seed", "SoftmaxCrossEntropyWithLogits/grad.2=SoftmaxCrossEntropyWithLogits",
	} {
		if rewired[name] == nil {
			f.Fatalf("no rewiring %s", name)
		}
		f.Add(rewired[name])
	}
	for _, raw := range hostileGraphs() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, fault := runEvery(data); fault != "" {
			t.Fatal(fault)
		}
	})
}
