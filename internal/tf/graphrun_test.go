package tf

import (
	"fmt"
	"strings"
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
// nothing. A Run that succeeds must also have laid its buffers out
// soundly (layoutFault), and fail once its plan declares scratch of
// another size than its kernels draw (misdeclared).
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
	if f := layoutFault(s); f != "" {
		return fmt.Sprintf("%q: %s", n.name, f)
	}
	return misdeclared(s, feeds, n)
}

// buffer is one output or scratch buffer a Run may draw, with its
// liveness as derived here from the graph.
type buffer struct {
	pos, i32, off, n, first, last int  // pos: -1 for scratch
	taken                         bool // by an op in place, at last
}

// buffers lists the buffers of the Run s made last: each value's but a
// view's and a folded BiasAdd's, live from its node to the last node
// reading its storage (a view or pass-through of it reads for as long as
// that is read; a fetch to the end), and each scratch draw's, for its
// node alone or, a forward cache, to the last node reading it.
func buffers(s *Session) []buffer {
	p := s.plans[0]
	last, folded := liveness(p)
	var bufs []buffer
	for k, node := range p.order {
		if sp := p.outSpan[k]; sp >= 0 && node.op != OpReshape && !folded[k] {
			bufs = append(bufs, buffer{k, b2i(node.dtype == Int32), p.spans[sp].off, p.shapes[k].NumElements(), k, last[k], false})
		}
		for _, u := range p.scratch[k] {
			end := k
			for g := range p.order {
				if u.cache && p.forward[g] == k {
					end = max(end, g)
				}
			}
			bufs = append(bufs, buffer{-1, b2i(u.i32), p.spans[u.span].off, p.spans[u.span].n, k, end, false})
		}
	}
	for i := range bufs {
		for _, b := range bufs {
			bufs[i].taken = bufs[i].taken || took(p, bufs[i], b)
		}
	}
	return bufs
}

// liveness derives, per position of p, the last position reading its
// storage and whether it is a BiasAdd folded into the Relu that reads
// it: one no fetch names and that Relu alone reads, whose inputs the
// Relu reads in its place.
func liveness(p *runPlan) (last []int, folded []bool) {
	n := len(p.order)
	last, folded = make([]int, n), make([]bool, n)
	readers := make([]int, n)
	for k := range p.order {
		last[k] = k
		for _, j := range p.inputs[k] {
			last[j] = k
			readers[j]++
		}
	}
	for _, k := range p.fetchAt {
		last[k] = n
	}
	for k, node := range p.order {
		if j := p.inputs[k]; node.op == OpRelu && p.order[j[0]].op == OpBiasAdd && readers[j[0]] == 1 && last[j[0]] == k {
			folded[j[0]] = true
			for _, i := range p.inputs[j[0]] {
				last[i] = max(last[i], k)
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		if op := p.order[k].op; op == OpReshape || op == OpDropout || op == OpDropoutGrad {
			j := p.inputs[k][0]
			last[j] = max(last[j], last[k])
		}
	}
	return last, folded
}

// took reports whether b is the output of an op computed in place over
// a, which it reads last, or over a view of a.
func took(p *runPlan, a, b buffer) bool {
	if a.pos < 0 || b.pos < 0 || a.last != b.first {
		return false
	}
	if op := p.order[b.pos].op; op != OpBiasAdd && op != OpRelu && op != OpReluGrad {
		return false
	}
	j := p.shares[b.pos]
	for j >= 0 && p.order[j].op == OpReshape {
		j = p.shares[j]
	}
	return j == a.pos
}

// sweep walks the nodes 0 to nodes and returns, per slab (float32,
// int32), the highest end of a buffer live at one of them and the most
// elements live at one, storage an op in place takes counted once. A
// buffer takes whole 64-byte lines.
func sweep(bufs []buffer, nodes int) (high, most [2]int) {
	for at := 0; at <= nodes; at++ {
		var live [2]int
		for _, b := range bufs {
			if room := (b.n + 15) &^ 15; b.first <= at && at <= b.last && b.n > 0 {
				high[b.i32] = max(high[b.i32], b.off+room)
				if !b.taken || at < b.last {
					live[b.i32] += room
				}
			}
		}
		most[0], most[1] = max(most[0], live[0]), max(most[1], live[1])
	}
	return high, most
}

// layoutFault checks the layout of the Run s made last against the
// liveness buffers derives, and describes the first fault: a BiasAdd
// has a span exactly when it is not folded; every buffer lies in its
// slab, from the start of a 64-byte line; no two that are live at one
// node overlap, unless one took the other's storage in place; and a
// sweep over the nodes finds each slab as long as the highest end of a
// buffer live at one of them, and at least the most that is live at
// any.
func layoutFault(s *Session) string {
	p := s.plans[0]
	_, folded := liveness(p)
	for k, node := range p.order {
		if node.op == OpBiasAdd && (p.outSpan[k] >= 0) == folded[k] {
			return fmt.Sprintf("BiasAdd %q folded %v, span %d", node.name, folded[k], p.outSpan[k])
		}
	}
	bufs := buffers(s)
	slabs := [2]int{len(s.f32), len(s.i32)}
	for i, a := range bufs {
		if a.off+a.n > slabs[a.i32] || a.off%16 != 0 {
			return fmt.Sprintf("a buffer of %d elements at %d in a slab of %d", a.n, a.off, slabs[a.i32])
		}
		for _, b := range bufs[i+1:] {
			if a.i32 == b.i32 && a.n > 0 && b.n > 0 && a.first <= b.last && b.first <= a.last &&
				a.off < b.off+b.n && b.off < a.off+a.n && !took(p, a, b) && !took(p, b, a) {
				return fmt.Sprintf("buffers of positions %d and %d, live over [%d,%d] and [%d,%d], overlap at %d and %d",
					a.pos, b.pos, a.first, a.last, b.first, b.last, a.off, b.off)
			}
		}
	}
	high, most := sweep(bufs, len(p.order))
	for d, slab := range slabs {
		if slab != high[d] || slab < most[d] {
			return fmt.Sprintf("a slab of %d elements where the highest live buffer ends at %d and at most %d are live", slab, high[d], most[d])
		}
	}
	return ""
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// misdeclared runs n again with every scratch draw the plan declares
// one element larger than its op's rule says, as a rule and its kernel
// that disagree would, and reports a fault unless the Run fails on the
// draw where a kernel of the plan draws scratch for sure: a MaxPool, a
// softmax cross-entropy, a Dropout in training or a transposing MatMul.
// The plan's rules are restored after.
func misdeclared(s *Session, feeds Feeds, n *Node) (fault string) {
	p := s.plans[0]
	draws := false
	for k, node := range p.order {
		for i := range p.scratch[k] {
			u := &p.scratch[k][i]
			if p.spans[u.span].n > 0 && node.op != OpSoftmaxXentGrad {
				draws = true
			}
			size := u.size
			defer func() { u.size = size }()
			u.size = func(n *Node, in []Shape, out Shape) int { return size(n, in, out) + 1 }
		}
	}
	if !draws {
		return ""
	}
	_, err := s.Run(feeds, []*Node{n}, Training())
	if err == nil || !strings.Contains(err.Error(), "planned") {
		return fmt.Sprintf("%q with its scratch misdeclared: Run error %v, want a draw of another size than planned", n.name, err)
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
	// A BiasAdd and a Relu whose inputs are read after them, which may
	// not compute in place.
	res, _, _, _, _ := residual()
	raw, err := MarshalGraph(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	// Training graphs whose BiasAdds fold into the Relus reading them,
	// but for the logits', which the loss reads, and for any a Run
	// fetches; each pooled Relu's gradient is masked in its pool's space,
	// over 2×2 pools, and over a 3×3 stride-2 pool where the Relu is read
	// twice and its gradient is not.
	for _, c := range [][2]int{{2, 2}, {3, 2}} {
		g, _, _, loss, _ := pooledNet(c[0], c[1], c[0] == 3)
		if _, err := Minimize(g, SGD{LR: 0.1}, loss); err != nil {
			f.Fatal(err)
		}
		raw, err := MarshalGraph(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, fault := runEvery(data); fault != "" {
			t.Fatal(fault)
		}
	})
}
