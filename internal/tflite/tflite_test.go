package tflite

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
)

// buildFrozenMLP trains nothing — it just builds a deterministic frozen
// 2-layer MLP for conversion tests, returning the frozen graph and node
// handles.
func buildFrozenMLP(t *testing.T) (*tf.Graph, *tf.Node, *tf.Node) {
	t.Helper()
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 6})
	w1 := g.Variable("w1", tf.RandNormal(tf.Shape{6, 10}, 0.5, 201))
	b1 := g.Variable("b1", tf.RandNormal(tf.Shape{10}, 0.1, 202))
	h := g.Relu(g.BiasAdd(g.MatMul(x, w1), b1))
	drop := g.Dropout(h, 0.3) // identity at inference; converter elides it
	w2 := g.Variable("w2", tf.RandNormal(tf.Shape{10, 4}, 0.5, 203))
	logits := g.MatMul(drop, w2)
	probs := g.Softmax(logits)

	sess := tf.NewSession(g)
	defer sess.Close()
	frozen, err := tf.Freeze(sess, []*tf.Node{probs})
	if err != nil {
		t.Fatal(err)
	}
	return frozen, frozen.Node(x.Name()), frozen.Node(probs.Name())
}

// tfReference evaluates the frozen graph directly for comparison.
func tfReference(t *testing.T, g *tf.Graph, x, out *tf.Node, in *tf.Tensor) *tf.Tensor {
	t.Helper()
	sess := tf.NewSession(g)
	defer sess.Close()
	res, err := sess.Run(tf.Feeds{x: in}, []*tf.Node{out})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// sameBits reports whether two tensors agree in dtype, shape and every
// element bit. Both engines run internal/tf/kernels, so a converted
// model has no tolerance to hide behind.
func sameBits(a, b *tf.Tensor) bool {
	if a.DType() != b.DType() || !a.Shape().Equal(b.Shape()) {
		return false
	}
	if a.DType() == tf.Int32 {
		return slices.Equal(a.Ints(), b.Ints())
	}
	return slices.EqualFunc(a.Floats(), b.Floats(), func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

func TestConvertAndInvokeMatchesTF(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Fusion check: the whole MLP should lower to FC, FC, SOFTMAX.
	if len(model.Ops) != 3 {
		t.Fatalf("ops = %d (%v), want 3 after fusion", len(model.Ops), opCodes(model))
	}
	if model.Ops[0].Code != OpFullyConnected || model.Ops[0].Activation != ActRelu {
		t.Fatalf("op 0 = %v/%v, want fused FC+ReLU", model.Ops[0].Code, model.Ops[0].Activation)
	}

	in := tf.RandNormal(tf.Shape{5, 6}, 1, 204)
	want := tfReference(t, g, x, probs, in)

	ip, err := NewInterpreter(model)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	got, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(want, got) {
		t.Fatal("tflite output differs from TensorFlow reference")
	}
}

func opCodes(m *Model) []OpCode {
	out := make([]OpCode, len(m.Ops))
	for i, op := range m.Ops {
		out[i] = op.Code
	}
	return out
}

// TestConvertCNN lowers a graph that reaches every Lite kernel — SAME
// and strided VALID convolution, max and average pooling, a dense layer,
// Add, Softmax and ArgMax — and requires both outputs bit-equal to the
// tf session's.
func TestConvertCNN(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 12, 12, 1})
	f1 := g.Variable("f1", tf.RandNormal(tf.Shape{3, 3, 1, 4}, 0.4, 301))
	b1 := g.Variable("b1", tf.RandNormal(tf.Shape{4}, 0.1, 302))
	conv1 := g.Relu(g.BiasAdd(g.Conv2D(x, f1, 1, tf.PaddingSame), b1))
	pool1 := g.MaxPool(conv1, 2, 2) // 6x6x4
	f2 := g.Variable("f2", tf.RandNormal(tf.Shape{2, 2, 4, 3}, 0.4, 305))
	conv2 := g.Conv2D(pool1, f2, 2, tf.PaddingValid) // 3x3x3
	pool2 := g.AvgPool(conv2, 2, 1)                  // 2x2x3
	flat := g.Flatten(pool2)
	w := g.Variable("w", tf.RandNormal(tf.Shape{12, 3}, 0.3, 303))
	offset := g.Const("offset", tf.RandNormal(tf.Shape{2, 3}, 0.2, 306))
	probs := g.Softmax(g.Add(g.MatMul(flat, w), offset))
	pred := g.ArgMax(probs)

	sess := tf.NewSession(g)
	defer sess.Close()
	frozen, err := tf.Freeze(sess, []*tf.Node{probs, pred})
	if err != nil {
		t.Fatal(err)
	}
	fx := frozen.Node(x.Name())
	outs := []*tf.Node{frozen.Node(probs.Name()), frozen.Node(pred.Name())}

	model, err := Convert(frozen, []*tf.Node{fx}, outs, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []OpCode{OpConv2D, OpMaxPool, OpConv2D, OpAvgPool, OpReshape, OpFullyConnected, OpAdd, OpSoftmax, OpArgMax}
	if got := opCodes(model); !slices.Equal(got, want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}

	in := tf.RandNormal(tf.Shape{2, 12, 12, 1}, 1, 304)
	ip, err := NewInterpreter(model)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		got, err := ip.Output(i)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(tfReference(t, frozen, fx, out, in), got) {
			t.Fatalf("output %d (%s) differs from TensorFlow reference", i, out.Name())
		}
	}
}

func TestModelMarshalRoundTrip(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw := model.Marshal()
	restored, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	in := tf.RandNormal(tf.Shape{3, 6}, 1, 205)
	run := func(m *Model) *tf.Tensor {
		ip, err := NewInterpreter(m)
		if err != nil {
			t.Fatal(err)
		}
		defer ip.Close()
		if err := ip.SetInput(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		out, err := ip.Output(0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !tf.AllClose(run(model), run(restored), 0) {
		t.Fatal("round-tripped model computes differently")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw := model.Marshal()
	for _, cut := range []int{6, len(raw) / 3, len(raw) - 2} {
		if _, err := Unmarshal(raw[:cut]); err == nil {
			t.Fatalf("truncated model at %d accepted", cut)
		}
	}
}

func TestQuantizedModelSmallerAndClose(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	plain, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if quant.WeightBytes() >= plain.WeightBytes()/2 {
		t.Fatalf("quantized weights %d not substantially smaller than %d", quant.WeightBytes(), plain.WeightBytes())
	}

	in := tf.RandNormal(tf.Shape{4, 6}, 1, 206)
	want := tfReference(t, g, x, probs, in)
	ip, err := NewInterpreter(quant)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	got, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities should survive 8-bit weight quantization reasonably.
	var maxDiff float64
	for i := range want.Floats() {
		d := math.Abs(float64(want.Floats()[i] - got.Floats()[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.05 {
		t.Fatalf("quantized output deviates by %v", maxDiff)
	}
}

func TestConvertRejectsUnfrozenGraph(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 2})
	w := g.Variable("w", tf.RandNormal(tf.Shape{2, 2}, 1, 1))
	y := g.MatMul(x, w)
	if _, err := Convert(g, []*tf.Node{x}, []*tf.Node{y}, ConvertOptions{}); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
}

func TestInterpreterChargesDevice(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := p.CreateEnclave(sgx.SyntheticImage("tflite", BinarySize, 1<<20), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.NewEnclave("tflite", enclave, 1, 0)
	ip, err := NewInterpreter(model, WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.AllocateTensors(); err != nil {
		t.Fatal(err)
	}
	resident := enclave.ResidentBytes()
	if resident < model.WeightBytes() {
		t.Fatalf("enclave resident %d < model weights %d", resident, model.WeightBytes())
	}
	in := tf.RandNormal(tf.Shape{1, 6}, 1, 207)
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	before := p.Clock().Now()
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	if p.Clock().Now() == before {
		t.Fatal("Invoke charged no virtual time")
	}

	// The arena the device holds is the most the interpreter's arena has
	// held at the end of an Invoke. At batch 8 the three ops write
	// [8,10], [8,4] and [8,4] floats; the last is the output, handed
	// back to the caller, so the arena keeps the first two.
	if len(model.Ops) != 3 {
		t.Fatalf("the converted MLP has %d ops, want FullyConnected, FullyConnected, Softmax", len(model.Ops))
	}
	for _, batch := range []int{1, 8} {
		if err := ip.SetInput(0, tf.RandNormal(tf.Shape{batch, 6}, 1, 208)); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := enclave.ResidentBytes()-resident, int64(8*(10+4)*4); got != want {
		t.Fatalf("Invokes at batch 1 and 8 registered %d arena bytes, want %d", got, want)
	}
}

func TestCostScalePropagates(t *testing.T) {
	// A node with cost scale 100 must charge ~100x the flops.
	build := func(scale float64) *Model {
		g := tf.NewGraph()
		x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 8})
		w := g.Variable("w", tf.RandNormal(tf.Shape{8, 8}, 0.2, 201))
		y := g.MatMul(x, w)
		if scale > 0 {
			y.SetCostScale(scale)
		}
		sess := tf.NewSession(g)
		defer sess.Close()
		frozen, err := tf.Freeze(sess, []*tf.Node{y})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Convert(frozen, []*tf.Node{frozen.Node(x.Name())}, []*tf.Node{frozen.Node(y.Name())}, ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	measure := func(m *Model) int64 {
		p, err := sgx.NewPlatform("n", sgx.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		e, err := p.CreateEnclave(sgx.SyntheticImage("t", 1<<20, 0), sgx.ModeHW)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewInterpreter(m, WithDevice(device.NewEnclave("d", e, 1, 0)))
		if err != nil {
			t.Fatal(err)
		}
		defer ip.Close()
		in := tf.RandNormal(tf.Shape{1, 8}, 1, 1)
		if err := ip.SetInput(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		return e.Stats().ComputeFLOPs
	}
	base := measure(build(0))
	scaled := measure(build(100))
	if scaled < 50*base {
		t.Fatalf("cost scale not applied: %d vs %d flops", base, scaled)
	}
}

// floatBuffer encodes vals as a Float32 weight buffer.
func floatBuffer(vals ...float32) []byte {
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return raw
}

// TestMalformedModelsAndInputsError feeds the interpreter what a hostile
// model file or request can carry. Each case used to panic inside a
// kernel loop or in NewTensor — taking the serving process with it — and
// must now come back as an error from loading or from Invoke.
func TestMalformedModelsAndInputsError(t *testing.T) {
	act := func(name string, shape ...int) TensorSpec {
		return TensorSpec{Name: name, Type: TypeFloat32, Shape: shape, Buffer: -1}
	}
	weight := func(name string, buffer int, shape ...int) TensorSpec {
		return TensorSpec{Name: name, Type: TypeFloat32, Shape: shape, Buffer: buffer}
	}
	// oneOp is a model of tensors 0 (input) and 1 (output) plus weights,
	// running a single op.
	oneOp := func(op OpSpec, buffers [][]byte, weights ...TensorSpec) *Model {
		return &Model{
			Tensors: append([]TensorSpec{act("in"), act("out")}, weights...),
			Buffers: buffers,
			Ops:     []OpSpec{op},
			Inputs:  []int{0},
			Outputs: []int{1},
		}
	}
	ones := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	floatIn := func(shape ...int) *tf.Tensor { return tf.Fill(tf.Shape(shape), 1) }

	cases := []struct {
		name  string
		model *Model
		in    *tf.Tensor
	}{
		{
			"op with no inputs",
			oneOp(OpSpec{Code: OpRelu, Outputs: []int{1}}, nil),
			floatIn(1, 2),
		},
		{
			"op with no outputs",
			oneOp(OpSpec{Code: OpRelu, Inputs: []int{0}}, nil),
			floatIn(1, 2),
		},
		{
			"fully-connected bias shorter than its output",
			oneOp(OpSpec{Code: OpFullyConnected, Inputs: []int{0, 2, 3}, Outputs: []int{1}},
				[][]byte{floatBuffer(ones(6)...), floatBuffer(1)},
				weight("w", 0, 2, 3), weight("b", 1, 1)),
			floatIn(1, 2),
		},
		{
			"conv bias shorter than its output channels",
			oneOp(OpSpec{Code: OpConv2D, Inputs: []int{0, 2, 3}, Outputs: []int{1}, Stride: 1, Padding: PadSame},
				[][]byte{floatBuffer(ones(4)...), floatBuffer(1)},
				weight("f", 0, 1, 1, 1, 4), weight("b", 1, 1)),
			floatIn(1, 3, 3, 1),
		},
		{
			"pool window larger than its input",
			oneOp(OpSpec{Code: OpMaxPool, Inputs: []int{0}, Outputs: []int{1}, K: 8, Stride: 2}, nil),
			floatIn(1, 2, 2, 2),
		},
		{
			"VALID conv window larger than its input",
			oneOp(OpSpec{Code: OpConv2D, Inputs: []int{0, 2}, Outputs: []int{1}, Stride: 1, Padding: PadValid},
				[][]byte{floatBuffer(ones(25)...)},
				weight("f", 0, 5, 5, 1, 1)),
			floatIn(1, 2, 2, 1),
		},
		{
			"softmax of a rank-0 tensor",
			oneOp(OpSpec{Code: OpSoftmax, Inputs: []int{0}, Outputs: []int{1}}, nil),
			tf.Scalar(1),
		},
		{
			"argmax of a rank-0 tensor",
			oneOp(OpSpec{Code: OpArgMax, Inputs: []int{0}, Outputs: []int{1}}, nil),
			tf.Scalar(1),
		},
		{
			"output that no op writes",
			&Model{
				Tensors: []TensorSpec{act("in", -1, 2), weight("w", 0, 2)},
				Buffers: [][]byte{floatBuffer(1, 2)},
				Inputs:  []int{0},
				Outputs: []int{1},
			},
			floatIn(1, 2),
		},
		{
			"Int32 request into a float op",
			oneOp(OpSpec{Code: OpFullyConnected, Inputs: []int{0, 2}, Outputs: []int{1}},
				[][]byte{floatBuffer(ones(6)...)},
				weight("w", 0, 2, 3)),
			tf.NewTensor(tf.Int32, tf.Shape{1, 2}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Unmarshal(tc.model.Marshal()); err != nil {
				return // failed loading, as a corrupted file should
			}
			ip, err := NewInterpreter(tc.model)
			if err != nil {
				t.Fatalf("Unmarshal accepted what NewInterpreter rejects: %v", err)
			}
			defer ip.Close()
			if err := ip.SetInput(0, tc.in); err != nil {
				t.Fatal(err)
			}
			if err := ip.Invoke(); err == nil {
				t.Fatal("Invoke succeeded")
			}
		})
	}
}

// TestHostilePlansRepeat runs models a hostile file can describe — a
// tensor index written twice, an op that reads one value twice, dead
// ops, a Reshape whose storage is read after it and handed out as an
// output, a weight's index overwritten by an activation — on one
// interpreter with input A, then B, then A. Every Invoke must compute
// what the op list says, which an activation plan that hands storage
// back too early, or to two live tensors, breaks.
func TestHostilePlansRepeat(t *testing.T) {
	act := func(shape ...int) TensorSpec { return TensorSpec{Type: TypeFloat32, Shape: shape, Buffer: -1} }
	op := func(code OpCode, out int, in ...int) OpSpec {
		return OpSpec{Code: code, Inputs: in, Outputs: []int{out}}
	}
	reshape := func(out, in int, shape ...int) OpSpec {
		o := op(OpReshape, out, in)
		o.NewShape = shape
		return o
	}
	a, b := []float32{-1, 2, -3, 4}, []float32{5, -6, 7, -8}
	cases := []struct {
		name  string
		model *Model
		want  [][]float32 // each output for input a; r is relu(a) = {0, 2, 0, 4}
	}{
		{
			"index written twice, a value read twice, a dead op",
			&Model{
				Tensors: []TensorSpec{act(-1, 4), act(-1, 4), act(-1, 4), act(-1, 4), act(-1, 4), act(-1, 4)},
				Ops: []OpSpec{
					op(OpRelu, 2, 0),    // t2 = r
					op(OpRelu, 3, 2),    // t3 = r
					op(OpAdd, 2, 2, 3),  // t2 = 2r, over the first t2
					op(OpAdd, 4, 2, 2),  // t4 = 4r
					op(OpRelu, 5, 0),    // dead
					op(OpAdd, 1, 4, 3)}, // 5r, t3 read last
				Inputs: []int{0}, Outputs: []int{1},
			},
			[][]float32{{0, 10, 0, 20}},
		},
		{
			"a Reshape's storage read after it and handed out",
			&Model{
				Tensors: []TensorSpec{act(-1, 4), act(4), act(-1, 4), act(2, 2), act(-1, 4), act(-1, 4), act(-1, 4)},
				Ops: []OpSpec{
					op(OpRelu, 2, 0),    // t2 = r
					reshape(3, 2, 2, 2), // t3 views t2, whose last direct reader this is
					op(OpAdd, 4, 0, 0),  // t4 = 2a, drawn while t3 is live
					op(OpRelu, 5, 4),    // t5 = 2r
					op(OpAdd, 6, 5, 3),  // t6 = 3r, through the view
					reshape(1, 6, 4)},   // the output views t6
				Inputs: []int{0}, Outputs: []int{1, 3},
			},
			[][]float32{{0, 6, 0, 12}, {0, 2, 0, 4}},
		},
		{
			"a weight's index overwritten by an activation",
			&Model{
				Tensors: []TensorSpec{act(-1, 4), act(-1, 4), {Type: TypeFloat32, Shape: []int{1, 4}, Buffer: 0}, act(1, 4)},
				Buffers: [][]byte{floatBuffer(1, 1, 1, 1)},
				Ops: []OpSpec{
					op(OpRelu, 3, 2),    // t3 = the weight
					op(OpRelu, 2, 0),    // t2 = r, over the weight's index
					op(OpAdd, 1, 3, 2)}, // 1 + r
				Inputs: []int{0}, Outputs: []int{1},
			},
			[][]float32{{1, 3, 1, 5}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Unmarshal(tc.model.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			ip, err := NewInterpreter(m)
			if err != nil {
				t.Fatal(err)
			}
			defer ip.Close()
			var kept []*tf.Tensor // copies of input A's outputs
			for i, in := range [][]float32{a, b, a} {
				x, err := tf.FromFloats(tf.Shape{1, 4}, in)
				if err != nil {
					t.Fatal(err)
				}
				if err := ip.SetInput(0, x); err != nil {
					t.Fatal(err)
				}
				if err := ip.Invoke(); err != nil {
					t.Fatalf("Invoke %d: %v", i+1, err)
				}
				if !slices.Equal(x.Floats(), in) {
					t.Fatalf("Invoke %d wrote its input", i+1)
				}
				for j := range m.Outputs {
					out, err := ip.Output(j)
					if err != nil {
						t.Fatal(err)
					}
					if i != 1 {
						kept = append(kept, out.Clone())
					}
				}
				for k, out := range kept {
					if want := tc.want[k%len(tc.want)]; !slices.Equal(out.Floats(), want) {
						t.Fatalf("after Invoke %d, output %d of Invoke %d on input A is %v, want %v", i+1, k%len(tc.want), 1+2*(k/len(tc.want)), out.Floats(), want)
					}
				}
			}
		})
	}
}
