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

// TestHostileGradientGraphErrs: a loaded graph can wire a gradient
// kernel to operands that disagree — a 2-element gradient for a
// 5-element input, or a MaxPoolGrad whose forward pool read a larger
// tensor than its x. Running it is an error, not a panic.
func TestHostileGradientGraphErrs(t *testing.T) {
	g := NewGraph()
	grad := g.Placeholder("grad", Float32, Shape{2})
	x := g.Placeholder("x", Float32, Shape{5})
	for _, op := range []string{OpReluGrad, OpSigmoidGrad, OpTanhGrad} {
		g.addNode(op, op, []*Node{grad, x}, nil, Shape{5}, Float32)
	}
	big := g.Placeholder("big", Float32, Shape{1, 4, 4, 1})
	small := g.Placeholder("small", Float32, Shape{1, 2, 2, 1})
	pool := g.MaxPool(big, 2, 2)
	g.addNode(OpMaxPoolGrad, OpMaxPoolGrad, []*Node{pool, small}, Attrs{"forward": pool.Name()}, Shape{1, 2, 2, 1}, Float32)
	scalar := g.Placeholder("scalar", Float32, Shape{}) // a rank-0 gradient has no channels
	g.addNode(OpBiasAddGrad, OpBiasAddGrad, []*Node{scalar}, nil, Shape{1}, Float32)

	raw, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(loaded)
	defer s.Close()
	ramp := make([]float32, 16) // each window's maximum is its last element
	for i := range ramp {
		ramp[i] = float32(i)
	}
	bigIn, err := FromFloats(Shape{1, 4, 4, 1}, ramp)
	if err != nil {
		t.Fatal(err)
	}
	feeds := Feeds{
		loaded.Node("grad"):   Fill(Shape{2}, 1),
		loaded.Node("x"):      Fill(Shape{5}, 1),
		loaded.Node("big"):    bigIn,
		loaded.Node("small"):  Fill(Shape{1, 2, 2, 1}, 1),
		loaded.Node("scalar"): Scalar(1),
	}
	for _, op := range []string{OpReluGrad, OpSigmoidGrad, OpTanhGrad, OpMaxPoolGrad, OpBiasAddGrad} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Run panicked: %v", op, p)
				}
			}()
			if _, err := s.Run(feeds, []*Node{loaded.Node(op)}); err == nil {
				t.Errorf("%s: Run accepted mismatched operands", op)
			}
		}()
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
	// A training graph over a convolution carries every attribute kind:
	// integers and strings (Conv2D), integer lists (Flatten), floats
	// (Dropout, the optimizer), booleans (the MatMul gradients) and
	// tensors (the variables).
	conv := NewGraph()
	x := conv.Placeholder("x", Float32, Shape{-1, 6, 6, 1})
	y := conv.Placeholder("y", Float32, Shape{-1, 3})
	h := conv.Flatten(conv.MaxPool(conv.Conv2D(x, conv.Variable("k", RandNormal(Shape{3, 3, 1, 2}, 0.5, 1)), 1, PaddingSame), 2, 2))
	logits := conv.MatMul(conv.Dropout(h, 0.5), conv.Variable("w", RandNormal(Shape{18, 3}, 0.5, 2)))
	if _, err := Minimize(conv, SGD{LR: 0.1}, conv.ReduceMean(conv.SoftmaxCrossEntropy(logits, y))); err != nil {
		f.Fatal(err)
	}
	for _, g := range []*Graph{NewGraph(), dense, conv} {
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
