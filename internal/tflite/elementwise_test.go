package tflite

import (
	"testing"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/tf"
)

// convertAndRun converts a graph and runs both engines on the same
// input, returning (tf output, lite output).
func convertAndRun(t *testing.T, g *tf.Graph, in, out *tf.Node, input *tf.Tensor) (*tf.Tensor, *tf.Tensor) {
	t.Helper()
	sess := tf.NewSession(g)
	defer sess.Close()
	ref, err := sess.Run(tf.Feeds{in: input}, []*tf.Node{out})
	if err != nil {
		t.Fatal(err)
	}

	model, err := Convert(g, []*tf.Node{in}, []*tf.Node{out}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterpreter(model)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, input); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	got, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	return ref[0], got
}

func TestConvertStandaloneAdd(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 4})
	bias, err := tf.FromFloats(tf.Shape{1, 4}, []float32{1, -2, 3, -4})
	if err != nil {
		t.Fatal(err)
	}
	sum := g.Add(x, g.Const("offset", bias))
	input := tf.RandNormal(tf.Shape{1, 4}, 1, 7)
	ref, got := convertAndRun(t, g, x, sum, input)
	if !sameBits(ref, got) {
		t.Fatalf("lite Add disagrees with engine:\n%v\nvs\n%v", ref.Floats(), got.Floats())
	}
}

func TestConvertStandaloneRelu(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 8})
	y := g.Relu(x)
	input := tf.RandNormal(tf.Shape{2, 8}, 1, 9)
	ref, got := convertAndRun(t, g, x, y, input)
	if !sameBits(ref, got) {
		t.Fatal("lite Relu disagrees with engine")
	}
	for _, v := range got.Floats() {
		if v < 0 {
			t.Fatalf("relu output %v negative", v)
		}
	}
}

func TestConvertArgMax(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 5})
	y := g.ArgMax(x)
	input, err := tf.FromFloats(tf.Shape{2, 5}, []float32{
		0, 9, 2, 3, 4,
		5, 1, 2, 8, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, got := convertAndRun(t, g, x, y, input)
	if ref.DType() != got.DType() {
		t.Fatalf("dtype %v vs %v", ref.DType(), got.DType())
	}
	want := []int32{1, 3}
	for i, w := range want {
		if got.Ints()[i] != w {
			t.Fatalf("argmax[%d] = %d, want %d", i, got.Ints()[i], w)
		}
	}
}

func TestOpCodeStrings(t *testing.T) {
	seen := map[string]bool{}
	for code := OpFullyConnected; code <= OpArgMax+2; code++ {
		s := code.String()
		if s == "" {
			t.Fatalf("opcode %d has empty name", code)
		}
		if seen[s] && s != "UNKNOWN" {
			t.Fatalf("duplicate opcode name %q", s)
		}
		seen[s] = true
	}
}

func TestWithInstanceID(t *testing.T) {
	spec := tf.Shape{1, 4}
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 4})
	y := g.Relu(x)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{y}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two interpreters over the same model on one device must not
	// collide on residency registration names.
	dev := device.NewNull()
	a, err := NewInterpreter(model, WithDevice(dev), WithInstanceID("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewInterpreter(model, WithDevice(dev), WithInstanceID("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	in := tf.RandNormal(spec, 1, 1)
	for _, ip := range []*Interpreter{a, b} {
		if err := ip.SetInput(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
}
