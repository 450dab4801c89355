package tf

import (
	"fmt"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/device"
)

// pooledNet is a loss over x [-1,9,9,1]: a convolution, a BiasAdd and a
// Relu, and a max pool of window k at stride s, then a second such
// block with a 2×2 pool when k is 2, then a dense layer with a bias and
// a Relu, and logits read by a softmax cross-entropy. With shared set,
// the first Relu is read again, by a sum added to the loss. It returns
// the loss and the Relus that a pool reads.
func pooledNet(k, s int, shared bool) (g *Graph, x, y, loss *Node, pooled []*Node) {
	g = NewGraph()
	x = g.Placeholder("x", Float32, Shape{-1, 9, 9, 1})
	y = g.Placeholder("y", Float32, Shape{-1, 3})
	block := func(in *Node, c, f int, seed int64) *Node {
		filter := g.Variable(fmt.Sprintf("filter%d", seed), RandNormal(Shape{3, 3, c, f}, 0.5, seed))
		bias := g.Variable(fmt.Sprintf("bias%d", seed), RandNormal(Shape{f}, 0.3, seed+1))
		relu := g.Relu(g.BiasAdd(g.Conv2D(in, filter, 1, PaddingSame), bias))
		pooled = append(pooled, relu)
		return relu
	}
	first := block(x, 1, 4, 70)
	h := g.MaxPool(first, k, s)
	if k == 2 {
		h = g.MaxPool(block(h, 4, 8, 72), 2, 2)
	}
	h = g.Flatten(h)
	w1 := g.Variable("w1", RandNormal(Shape{h.shape[1], 6}, 0.3, 74))
	b1 := g.Variable("b1", RandNormal(Shape{6}, 0.3, 75))
	h = g.Relu(g.BiasAdd(g.MatMul(h, w1), b1))
	w2 := g.Variable("w2", RandNormal(Shape{6, 3}, 0.3, 76))
	b2 := g.Variable("b2", RandNormal(Shape{3}, 0.3, 77))
	loss = g.ReduceMean(g.SoftmaxCrossEntropy(g.BiasAdd(g.MatMul(h, w2), b2), y))
	if shared {
		loss = g.Add(loss, g.Mul(g.ReduceSum(first), g.Const("tenth", Scalar(0.1))))
	}
	return g, x, y, loss, pooled
}

// TestPoolMaskedGradientBitEqual: where a max pool alone reads a Relu,
// Gradients masks in the pool's space, MaxPoolGrad(ReluGrad(g, p), y),
// and every variable's gradient is bit for bit what the unmasked
// ReluGrad(MaxPoolGrad(g, y), y) gives. The reference is built by asking
// for each pooled Relu's own gradient too, which keeps it unmasked; the
// test checks that it is. The nets: two 2×2 pools as the MNIST CNN has,
// an overlapping 3×3 stride-2 pool (MaxPoolGrad's scatter), and a Relu
// that a second op reads, where the mask stays where it was. The rewrite
// leaves no node that no gradient reads.
func TestPoolMaskedGradientBitEqual(t *testing.T) {
	for _, c := range []struct {
		name   string
		k, s   int
		shared bool
	}{{"2x2 pools", 2, 2, false}, {"3x3 stride-2 pool", 3, 2, false}, {"a Relu read twice", 2, 2, true}} {
		g, x, y, loss, relus := pooledNet(c.k, c.s, c.shared)
		vars := g.Variables()
		before := len(g.nodes)
		got, err := Gradients(g, loss, vars)
		if err != nil {
			t.Fatal(err)
		}
		added, between := g.nodes[before:], len(g.nodes)
		ref, err := Gradients(g, loss, append(vars[:len(vars):len(vars)], relus...))
		if err != nil {
			t.Fatal(err)
		}
		refAdded := g.nodes[between:]
		for i, relu := range relus {
			pool, masked := consumer(g, relu, OpMaxPool), !(c.shared && i == 0)
			if n := readersOf(added, OpReluGrad, pool); n != b2i(masked) {
				t.Errorf("%s: %d ReluGrads over %q's pool, want %d", c.name, n, relu.name, b2i(masked))
			}
			if n := readersOf(added, OpReluGrad, relu); n != 1-b2i(masked) {
				t.Errorf("%s: %d ReluGrads over %q, want %d", c.name, n, relu.name, 1-b2i(masked))
			}
			if readersOf(refAdded, OpReluGrad, pool) != 0 || readersOf(refAdded, OpReluGrad, relu) != 1 {
				t.Fatalf("%s: the reference does not mask %q's gradient after its pool's MaxPoolGrad", c.name, relu.name)
			}
		}
		for _, n := range orphans(added, got) {
			t.Errorf("%s: %s %q is read by no gradient", c.name, n.op, n.name)
		}
		feeds := Feeds{x: RandNormal(Shape{5, 9, 9, 1}, 1, 78), y: OneHot([]int{0, 1, 2, 1, 0}, 3)}
		s := NewSession(g)
		out, err := s.Run(feeds, append(got, ref[:len(vars)]...))
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vars {
			if !bitEqual(out[i], out[len(vars)+i]) {
				t.Errorf("%s: the gradient of %q differs from the unmasked one's", c.name, v.name)
			}
		}
	}
}

// consumer is the first node of g of op that reads n.
func consumer(g *Graph, n *Node, op string) *Node {
	for _, m := range g.nodes {
		if m.op == op && len(m.inputs) > 0 && m.inputs[0] == n {
			return m
		}
	}
	return nil
}

// readersOf counts the nodes of op among nodes whose second input is n.
func readersOf(nodes []*Node, op string, n *Node) int {
	count := 0
	for _, m := range nodes {
		if m.op == op && m.inputs[1] == n {
			count++
		}
	}
	return count
}

// orphans returns the nodes among added that no node of outs reads,
// directly or not.
func orphans(added, outs []*Node) []*Node {
	order, err := topoSort(outs)
	if err != nil {
		panic(err)
	}
	read := make(map[*Node]bool, len(order))
	for _, n := range order {
		read[n] = true
	}
	var out []*Node
	for _, n := range added {
		if !read[n] {
			out = append(out, n)
		}
	}
	return out
}

// foldedBiasAdds lists the BiasAdds the plan of s's last Run folded into
// their Relu, by name.
func foldedBiasAdds(s *Session) map[string]bool {
	p := s.plans[0]
	out := map[string]bool{}
	for k, node := range p.order {
		if p.kernels[k] == nil && opRules[node.op].kernel != nil {
			j := slices.IndexFunc(p.order, func(r *Node) bool { return len(r.inputs) > 0 && r.inputs[0] == node })
			if node.op != OpBiasAdd || p.order[j].op != OpRelu || !slices.Equal(p.reads[j], p.inputs[k]) || p.outSpan[k] >= 0 {
				panic(fmt.Sprintf("%s %q folded, read by %s %q", node.op, node.name, p.order[j].op, p.order[j].name))
			}
			out[node.name] = true
		}
	}
	return out
}

// TestBiasAddFoldsIntoItsRelu: a training step folds each BiasAdd that
// a Relu alone reads into that Relu, and no other: not the logits' bias,
// which the loss and its gradient read; not a fetched BiasAdd; not one
// read twice. Each Relu gives the bits it gives unfolded, and a fed
// BiasAdd's Relu reads the feed.
func TestBiasAddFoldsIntoItsRelu(t *testing.T) {
	g, x, y, loss, _ := pooledNet(2, 2, false)
	train, err := Minimize(g, SGD{LR: 0.1}, loss)
	if err != nil {
		t.Fatal(err)
	}
	feeds := Feeds{x: RandNormal(Shape{5, 9, 9, 1}, 1, 79), y: OneHot([]int{2, 1, 0, 1, 2}, 3)}
	s := NewSession(g)
	defer s.Close()
	if _, err := s.Run(feeds, []*Node{loss, train}, Training()); err != nil {
		t.Fatal(err)
	}
	var relus, want []*Node
	for _, n := range g.nodes {
		if n.op == OpRelu {
			relus, want = append(relus, n), append(want, n.inputs[0])
		}
	}
	folded := foldedBiasAdds(s)
	for _, b := range want {
		if !folded[b.name] {
			t.Errorf("%q is not folded into its Relu", b.name)
		}
	}
	if len(folded) != len(want) {
		t.Errorf("folded %v, want the %d BiasAdds the Relus read", folded, len(want))
	}

	for _, r := range relus {
		got, err := s.Run(feeds, []*Node{r})
		if err != nil {
			t.Fatal(err)
		}
		if !foldedBiasAdds(s)[r.inputs[0].name] {
			t.Fatalf("%q alone: %q is not folded", r.name, r.inputs[0].name)
		}
		ref, err := s.Run(feeds, []*Node{r, r.inputs[0]})
		if err != nil {
			t.Fatal(err)
		}
		if foldedBiasAdds(s)[r.inputs[0].name] {
			t.Fatalf("%q is folded though fetched", r.inputs[0].name)
		}
		if !bitEqual(got[0], ref[0]) {
			t.Errorf("%q folded differs from %q unfolded", r.name, r.name)
		}
		fed := RandNormal(ref[1].Shape(), 1, 80)
		got, err = s.Run(Feeds{x: feeds[x], r.inputs[0]: fed}, []*Node{r})
		if err != nil {
			t.Fatal(err)
		}
		wantFed := fed.Clone()
		for i, v := range wantFed.f32 {
			wantFed.f32[i] = max(v, 0)
		}
		if !bitEqual(got[0], wantFed) {
			t.Errorf("%q over a fed BiasAdd did not read the feed", r.name)
		}
	}

	res, rx, _, b, out := residual()
	rs := NewSession(res)
	defer rs.Close()
	if _, err := rs.Run(Feeds{rx: RandNormal(Shape{3, 4}, 1, 81)}, []*Node{out}); err != nil {
		t.Fatal(err)
	}
	if f := foldedBiasAdds(rs); f[b.name] {
		t.Errorf("%q, which a Relu and an Add read, is folded", b.name)
	}
}

// chargeDevice is a null device that sums what it is charged.
type chargeDevice struct {
	*device.Null
	flops, bytes int64
}

func (d *chargeDevice) Compute(flops int64)                { d.flops += flops }
func (d *chargeDevice) Access(bytes int64, streaming bool) { d.bytes += bytes }

// TestFoldedReluCharges: a Relu with its BiasAdd folded in charges both
// ops' FLOPs, each at its node's cost scale, and moves the BiasAdd's
// input once each way: 2·x bytes fewer than the two ops apart.
func TestFoldedReluCharges(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 6})
	b := g.BiasAdd(x, g.Variable("b", RandNormal(Shape{6}, 0.5, 82)))
	b.SetCostScale(3)
	r := g.Relu(b)
	feeds := Feeds{x: RandNormal(Shape{4, 6}, 1, 83)}
	charges := func(fetches ...*Node) (int64, int64) {
		dev := &chargeDevice{Null: device.NewNull()}
		s := NewSession(g, WithDevice(dev))
		defer s.Close()
		if _, err := s.Run(feeds, fetches); err != nil {
			t.Fatal(err)
		}
		return dev.flops, dev.bytes
	}
	flops, bytes := charges(r)
	apartFlops, apartBytes := charges(r, b)
	if flops != apartFlops || flops != 3*24+24 {
		t.Errorf("folded: %d FLOPs, apart %d; want both %d", flops, apartFlops, 3*24+24)
	}
	if xBytes := int64(4 * 24); bytes != 2*xBytes || apartBytes != 4*xBytes {
		t.Errorf("folded: %d bytes, apart %d; want %d and %d", bytes, apartBytes, 2*xBytes, 4*xBytes)
	}
}
