package tf

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/securetf/securetf/internal/wire"
)

// buildTestModel creates a small dense model used by serialization tests.
func buildTestModel(g *Graph) (x, logits *Node) {
	x = g.Placeholder("x", Float32, Shape{-1, 4})
	w1 := g.Variable("w1", RandNormal(Shape{4, 8}, 0.5, 70))
	b1 := g.Variable("b1", RandNormal(Shape{8}, 0.1, 71))
	h := g.Relu(g.BiasAdd(g.MatMul(x, w1), b1))
	w2 := g.Variable("w2", RandNormal(Shape{8, 3}, 0.5, 72))
	logits = g.MatMul(h, w2)
	return
}

func TestGraphMarshalRoundTrip(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)

	raw, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnmarshalGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes()) != len(g.Nodes()) {
		t.Fatalf("node count %d vs %d", len(g2.Nodes()), len(g.Nodes()))
	}

	// Same input through both graphs gives identical outputs (same
	// variable initials).
	in := RandNormal(Shape{5, 4}, 1, 73)
	s1 := NewSession(g)
	defer s1.Close()
	s2 := NewSession(g2)
	defer s2.Close()
	out1, err := s1.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	x2, logits2 := g2.Node(x.Name()), g2.Node(logits.Name())
	if x2 == nil || logits2 == nil {
		t.Fatal("node names lost in round trip")
	}
	out2, err := s2.Run(Feeds{x2: in}, []*Node{logits2})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(out1[0], out2[0], 1e-6) {
		t.Fatal("restored graph computes different outputs")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalGraph([]byte("not a graph")); err == nil {
		t.Fatal("garbage accepted")
	}
	g := NewGraph()
	buildTestModel(g)
	raw, _ := MarshalGraph(g)
	for _, cut := range []int{7, len(raw) / 2, len(raw) - 3} {
		if _, err := UnmarshalGraph(raw[:cut]); err == nil {
			t.Fatalf("truncated graph at %d accepted", cut)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)
	s := NewSession(g)
	defer s.Close()

	// Perturb variables away from initials, snapshot, restore into a
	// fresh session.
	if err := s.SetVariable("w1", Fill(Shape{4, 8}, 0.25)); err != nil {
		t.Fatal(err)
	}
	ckpt := SaveCheckpoint(s)

	s2 := NewSession(g)
	defer s2.Close()
	if err := RestoreCheckpoint(s2, ckpt); err != nil {
		t.Fatal(err)
	}
	in := RandNormal(Shape{2, 4}, 1, 80)
	out1, err := s.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := s2.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(out1[0], out2[0], 0) {
		t.Fatal("checkpoint restore did not reproduce outputs")
	}
}

func TestRestoreCheckpointValidates(t *testing.T) {
	g := NewGraph()
	buildTestModel(g)
	s := NewSession(g)
	defer s.Close()
	if err := RestoreCheckpoint(s, []byte("junk")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestFreezeReplacesVariables(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)
	s := NewSession(g)
	defer s.Close()

	// Train-ish mutation so frozen values differ from initials.
	if err := s.SetVariable("w2", Fill(Shape{8, 3}, 0.5)); err != nil {
		t.Fatal(err)
	}
	frozen, err := Freeze(s, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	if len(frozen.Variables()) != 0 {
		t.Fatal("frozen graph still has variables")
	}

	in := RandNormal(Shape{3, 4}, 1, 81)
	want, err := s.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSession(frozen)
	defer fs.Close()
	fx, flogits := frozen.Node(x.Name()), frozen.Node(logits.Name())
	got, err := fs.Run(Feeds{fx: in}, []*Node{flogits})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(want[0], got[0], 1e-6) {
		t.Fatal("frozen graph differs from live session")
	}
}

func TestFrozenGraphSerializes(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)
	s := NewSession(g)
	defer s.Close()
	frozen, err := Freeze(s, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalGraph(frozen)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	in := RandNormal(Shape{2, 4}, 1, 82)
	rs := NewSession(restored)
	defer rs.Close()
	rx, rlogits := restored.Node(x.Name()), restored.Node(logits.Name())
	got, err := rs.Run(Feeds{rx: in}, []*Node{rlogits})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSession(frozen)
	defer fs.Close()
	want, err := fs.Run(Feeds{frozen.Node(x.Name()): in}, []*Node{frozen.Node(logits.Name())})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(want[0], got[0], 0) {
		t.Fatal("serialized frozen graph differs")
	}
}

func TestFreezeTrainedModelKeepsAccuracy(t *testing.T) {
	// Train, freeze, verify the frozen graph classifies like the live
	// session — the workflow secureTF uses to produce inference models.
	g := NewGraph()
	x, y, loss, acc := buildLogreg(g)
	train, err := Minimize(g, SGD{LR: 0.5}, loss)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(g)
	defer s.Close()
	xs, ys := syntheticClassification(64, 9)
	for i := 0; i < 100; i++ {
		if _, err := s.Run(Feeds{x: xs, y: ys}, []*Node{train}, Training()); err != nil {
			t.Fatal(err)
		}
	}
	liveAcc, err := s.Run(Feeds{x: xs, y: ys}, []*Node{acc})
	if err != nil {
		t.Fatal(err)
	}

	frozen, err := Freeze(s, []*Node{acc})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSession(frozen)
	defer fs.Close()
	frozenAcc, err := fs.Run(
		Feeds{frozen.Node(x.Name()): xs, frozen.Node(y.Name()): ys},
		[]*Node{frozen.Node(acc.Name())})
	if err != nil {
		t.Fatal(err)
	}
	if liveAcc[0].Floats()[0] != frozenAcc[0].Floats()[0] {
		t.Fatalf("accuracy changed by freezing: %v vs %v", liveAcc[0].Floats()[0], frozenAcc[0].Floats()[0])
	}
}

// TestUnmarshalGraphBoundsCounts: a graph of at most 40 bytes that
// claims 1<<24 inputs, or 1<<24 values in an integer-list attribute,
// is refused without the decoder sizing anything from the claim.
func TestUnmarshalGraphBoundsCounts(t *testing.T) {
	node := func() *wire.Writer {
		w := &wire.Writer{Buf: []byte(graphMagic)}
		w.U32(1) // nodes
		w.Str("a")
		w.Str("")
		w.U8(uint8(Float32))
		w.U32(0) // rank
		return w
	}
	inputs := node()
	inputs.U32(1 << 24)
	inputs.Buf = append(inputs.Buf, make([]byte, 13)...)
	ints := node()
	ints.U32(0) // inputs
	ints.U32(1) // attrs
	ints.Str("")
	ints.U8(attrKindInts)
	ints.U32(1 << 24)
	for name, raw := range map[string][]byte{"inputs": inputs.Buf, "attribute values": ints.Buf} {
		if len(raw) > 40 {
			t.Fatalf("%s: the graph is %d bytes", name, len(raw))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalGraph(raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte graph claiming 1<<24 of them was accepted", name, len(raw))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: refusing a %d-byte graph allocated %d bytes", name, len(raw), alloc)
		}
	}
}

// TestHostileGradientGraphErrs: a loaded graph can wire a kernel to
// operands that disagree — a 2-element gradient for a 5-element input, a
// rank-0 gradient for BiasAddGrad, an optimizer's 2-element gradient for
// a 1-element variable. Declared with their dims, such a graph is
// refused at load; declared with -1 dims, it loads, and running it on
// tensors that disagree is an error. A gradient wired to another
// forward node's cache — a pool, a dropout or a softmax over a tensor
// other than its operand's shape — loads either way and errs at Run.
// Nothing panics.
func TestHostileGradientGraphErrs(t *testing.T) {
	feeds := map[string]*Tensor{
		"grad": Fill(Shape{2}, 1), "x": Fill(Shape{5}, 1), "scalar": Scalar(1), "one": Fill(Shape{1}, 1),
		"big": Fill(Shape{1, 4, 4, 1}, 1), "small": Fill(Shape{1, 2, 2, 1}, 1),
		"logits": Fill(Shape{2, 3}, 1), "labels": Fill(Shape{2, 3}, 1),
		"logits4": Fill(Shape{2, 4}, 1), "labels4": Fill(Shape{2, 4}, 1),
	}
	// Each row builds its graph; d(n) is n, or -1 for a graph declared
	// with unknown dims.
	type row struct {
		op    string
		lies  bool // the graph declared with its dims shows the mismatch
		build func(g *Graph, d func(int) int)
	}
	rows := []row{
		{OpReluGrad, true, nil}, {OpSigmoidGrad, true, nil}, {OpTanhGrad, true, nil},
		{OpBiasAddGrad, true, func(g *Graph, d func(int) int) {
			// A rank-0 gradient has no channels; declared [-1], the
			// scalar feed is what errs.
			scalar := g.Placeholder("scalar", Float32, Shape{})
			if d(1) < 0 {
				scalar = g.Placeholder("scalar", Float32, Shape{-1})
			}
			g.addNode(OpBiasAddGrad, OpBiasAddGrad, []*Node{g.Placeholder("one", Float32, Shape{d(1)})}, nil).inputs[0] = scalar
		}},
		{OpMaxPoolGrad, false, func(g *Graph, d func(int) int) {
			pool := g.MaxPool(g.Placeholder("big", Float32, Shape{1, d(4), d(4), 1}), 2, 2)
			g.addNode(OpMaxPoolGrad, OpMaxPoolGrad, []*Node{pool, g.Placeholder("small", Float32, Shape{1, d(2), d(2), 1})}, Attrs{"forward": pool.Name()})
		}},
		{OpDropoutGrad, false, func(g *Graph, d func(int) int) {
			drop := g.Dropout(g.Placeholder("x", Float32, Shape{d(5)}), 0.5)
			g.addNode(OpDropoutGrad, OpDropoutGrad, []*Node{g.Placeholder("grad", Float32, Shape{d(2)})}, Attrs{"forward": drop.Name()})
		}},
		{OpSoftmaxXentGrad, false, func(g *Graph, d func(int) int) {
			xent := g.SoftmaxCrossEntropy(g.Placeholder("logits", Float32, Shape{d(2), d(3)}), g.Placeholder("labels", Float32, Shape{d(2), d(3)}))
			g.addNode(OpSoftmaxXentGrad, OpSoftmaxXentGrad, []*Node{g.Placeholder("grad", Float32, Shape{d(2)}),
				g.Placeholder("logits4", Float32, Shape{d(2), d(4)}), g.Placeholder("labels4", Float32, Shape{d(2), d(4)})}, Attrs{"forward": xent.Name()})
		}},
	}
	for _, opt := range []Optimizer{SGD{LR: 0.1}, Momentum{LR: 0.1}, Adam{LR: 0.1}} {
		rows = append(rows, row{opt.Name(), true, func(g *Graph, d func(int) int) {
			// The gradient is fed 2 floats for a variable of 1.
			grad := g.Placeholder("grad", Float32, Shape{d(2)})
			opt.apply(g, g.Variable("v", Fill(Shape{1}, 1)), g.Placeholder("one", Float32, Shape{1})).inputs[1] = grad
		}})
	}
	for _, row := range rows {
		if row.build == nil {
			op := row.op
			row.build = func(g *Graph, d func(int) int) {
				grad, x := g.Placeholder("grad", Float32, Shape{d(2)}), g.Placeholder("x", Float32, Shape{d(5)})
				g.addNode(op, op, []*Node{x, x}, nil).inputs[0] = grad
			}
		}
		for _, unknown := range []bool{false, true} {
			g := NewGraph()
			row.build(g, func(n int) int {
				if unknown {
					return -1
				}
				return n
			})
			raw, err := MarshalGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := UnmarshalGraph(raw)
			if (err == nil) == (row.lies && !unknown) {
				t.Errorf("%s, unknown dims %v: loading it gave %v", row.op, unknown, err)
			}
			if err != nil {
				continue
			}
			runFeeds := Feeds{}
			for _, n := range loaded.Nodes() {
				if n.Op() == OpPlaceholder {
					runFeeds[n] = feeds[n.Name()]
				}
			}
			s := NewSession(loaded)
			if fault := runOne(s, runFeeds, loaded.Group("all", loaded.Nodes()...)); fault != errored {
				t.Errorf("%s, unknown dims %v: Run accepted mismatched operands (%s)", row.op, unknown, fault)
			}
			s.Close()
		}
	}
}

// TestRestoreCheckpointIsDecodeVarCheckpoint: the session loader
// refuses what the one STFC1 decoder refuses — a duplicate name, bytes
// after the last variable — and leaves the session as it was.
func TestRestoreCheckpointIsDecodeVarCheckpoint(t *testing.T) {
	g := NewGraph()
	g.Variable("v", Fill(Shape{2}, 1))
	s := NewSession(g)
	defer s.Close()
	one := EncodeVarCheckpoint(map[string]*Tensor{"v": Fill(Shape{2}, 5)})
	twice := wire.Writer{Buf: []byte(checkpointMagic)}
	twice.U32(2)
	for i := 0; i < 2; i++ {
		twice.Str("v")
		encodeTensorInto(&twice, Fill(Shape{2}, 5))
	}
	for name, blob := range map[string][]byte{"duplicate variable": twice.Buf, "trailing byte": append(bytes.Clone(one), 0)} {
		if err := RestoreCheckpoint(s, blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if v, _ := s.Variable("v"); v.Floats()[0] != 1 {
			t.Errorf("%s: the refused checkpoint changed the variable to %v", name, v.Floats())
		}
	}
	if err := RestoreCheckpoint(s, one); err != nil {
		t.Fatal(err)
	}
}

// FuzzGraphDecode: arbitrary bytes either fail to load or load as a
// graph in the form MarshalGraph writes, which re-marshals to the
// bytes it was read from.
func FuzzGraphDecode(f *testing.F) {
	dense := NewGraph()
	buildTestModel(dense)
	for _, g := range []*Graph{NewGraph(), dense, convTrainingGraph()} {
		raw, err := MarshalGraph(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalGraph(data)
		if err != nil {
			return
		}
		raw, err := MarshalGraph(g)
		if err != nil {
			t.Fatalf("a loaded graph does not marshal: %v", err)
		}
		if !bytes.Equal(raw, data) {
			t.Fatal("a loaded graph does not re-marshal to the bytes it was read from")
		}
	})
}
