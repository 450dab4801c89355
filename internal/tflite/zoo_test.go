package tflite_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
)

// densenetB1Slab and mlpB16Slab are the bytes of the slabs a batch-1
// densenet Invoke (serve-steady's) and a batch-16 MNIST MLP Invoke
// (serve-fleet's OCR stage) lay out: the most their activations hold
// live at one op.
const (
	densenetB1Slab = 16_384
	mlpB16Slab     = 8_832
)

// zooLite freezes a zoo classifier with a softmax head and lowers it to
// the Lite format.
func zooLite(t testing.TB, h models.Handles, quantize bool) *tflite.Model {
	t.Helper()
	probs := h.Graph.Softmax(h.Logits)
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	frozen, err := tf.Freeze(sess, []*tf.Node{probs})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tflite.Convert(frozen, []*tf.Node{frozen.Node(h.X.Name())}, []*tf.Node{frozen.Node(probs.Name())},
		tflite.ConvertOptions{Quantize: quantize})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func invoke(t testing.TB, m *tflite.Model, in *tf.Tensor) *tf.Tensor {
	t.Helper()
	ip, err := tflite.NewInterpreter(m)
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

func floatsSHA(vals []float32) string {
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestZooOutputGoldens pins the interpreter's output bits for the MLP
// and CNN zoo models. The hashes were recorded at commit d79d514, before
// the interpreter's own loop nests were replaced by internal/tf/kernels:
// they are the proof that the move changed no output bit. A kernel change
// that keeps the summation order keeps them; one that does not must
// re-pin them deliberately. Each is checked on a fresh interpreter and on
// a warm one that runs b1, b8, b1, b8, each twice: the second of a pair
// computes into the storage the first left, and a batch change drops it.
func TestZooOutputGoldens(t *testing.T) {
	golden := map[string]string{
		"mlp/float/b1": "9f3d12a721ae1bc6d2e6672facf742f6542a80082e7ea7137821cf1de5c68353",
		"mlp/float/b8": "b3f90fd919fb0f179b4daf153f8970b6ce89020de9e19f210beea78a3dde4d55",
		"mlp/int8/b1":  "babce19ac67a4b99bf54b00a3eef949b91857cc31099a0e246ba36d57e28cb5d",
		"mlp/int8/b8":  "a6cf5ca514d934c43f73401e1bb600d385c85782935ef92e5df76e496d91d600",
		"cnn/float/b1": "4c2a8a48edc4f81dabf1f40b12bcda587917c96957100fd7850f263b13a3d0f7",
		"cnn/float/b8": "c1afe5fe905abae80e602ca7a68e0b5e122501cb7c937b8dec663b52e899a6b6",
		"cnn/int8/b1":  "796ef6e9049616660285afad9d64ed75fe821491ea093328f8e2d644bf2b5f98",
		"cnn/int8/b8":  "3d7e4049bf8b8a3572cd588aba097d895cccbce9164cbae252ae0cbc9b38694c",
	}
	zoo := []struct {
		name  string
		build func(int64) models.Handles
	}{{"mlp", models.MNISTMLP}, {"cnn", models.MNISTCNN}}
	for _, z := range zoo {
		for _, quant := range []bool{false, true} {
			m := zooLite(t, z.build(41), quant)
			kind := "float"
			if quant {
				kind = "int8"
			}
			for _, batch := range []int{1, 8} {
				key := fmt.Sprintf("%s/%s/b%d", z.name, kind, batch)
				out := invoke(t, m, tf.RandNormal(tf.Shape{batch, 28, 28, 1}, 1, int64(100+batch)))
				if got := floatsSHA(out.Floats()); got != golden[key] {
					t.Errorf("%s: output sha256 %s, want %s", key, got, golden[key])
				}
			}
			warm, err := tflite.NewInterpreter(m)
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range []int{1, 1, 8, 8, 1, 1, 8, 8} {
				key := fmt.Sprintf("%s/%s/b%d", z.name, kind, batch)
				if err := warm.SetInput(0, tf.RandNormal(tf.Shape{batch, 28, 28, 1}, 1, int64(100+batch))); err != nil {
					t.Fatal(err)
				}
				if err := warm.Invoke(); err != nil {
					t.Fatal(err)
				}
				out, err := warm.Output(0)
				if err != nil {
					t.Fatal(err)
				}
				if got := floatsSHA(out.Floats()); got != golden[key] {
					t.Errorf("%s, Invoke %d of a warm interpreter: output sha256 %s, want %s", key, i+1, got, golden[key])
				}
			}
			warm.Close()
		}
	}
}

// TestRelaidBatchesBitEqual runs the MNIST MLP and CNN, float32 and
// int8, at batch 16, 3 and 16 again, each twice, on one interpreter
// whose slabs are filled with NaN before every Invoke (Dirty). Each
// batch change lays the Invoke out again, and each repeat computes into
// the storage the last left; every output must be a fresh
// interpreter's, bit for bit.
func TestRelaidBatchesBitEqual(t *testing.T) {
	for _, z := range []struct {
		name  string
		build func(int64) models.Handles
	}{{"mlp", models.MNISTMLP}, {"cnn", models.MNISTCNN}} {
		for _, quant := range []bool{false, true} {
			m := zooLite(t, z.build(41), quant)
			warm, err := tflite.NewInterpreter(m)
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range []int{16, 16, 3, 3, 16, 16} {
				in := tf.RandNormal(tf.Shape{batch, 28, 28, 1}, 1, int64(200+i))
				tflite.Dirty(warm)
				if err := warm.SetInput(0, in); err != nil {
					t.Fatal(err)
				}
				if err := warm.Invoke(); err != nil {
					t.Fatal(err)
				}
				got, err := warm.Output(0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, invoke(t, m, in)) {
					t.Errorf("%s (int8 %v), Invoke %d at batch %d: output differs from a fresh interpreter's", z.name, quant, i+1, batch)
				}
			}
			warm.Close()
		}
	}
}

// TestOutputIsTheInterpreters: a model output is the interpreter's, one
// tensor per output, kept while its shape holds. On one interpreter
// whose slabs and outputs are filled with NaN before every Invoke
// (Dirty), the MNIST MLP's logits, a FullyConnected that accumulates
// into its cleared output, come back in the tensor the last Invoke
// returned when the batch holds and in a new one when it moves, and
// every Invoke's are a fresh interpreter's, bit for bit.
func TestOutputIsTheInterpreters(t *testing.T) {
	h := models.MNISTMLP(41)
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	frozen, x, logits, err := models.FreezeForInference(h, sess)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tflite.Convert(frozen, []*tf.Node{x}, []*tf.Node{logits}, tflite.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := tflite.NewInterpreter(m)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	var last *tf.Tensor
	batches := []int{4, 4, 2, 2, 4}
	for i, batch := range batches {
		in := tf.RandNormal(tf.Shape{batch, 28, 28, 1}, 1, int64(300+i))
		tflite.Dirty(warm)
		if err := warm.SetInput(0, in); err != nil {
			t.Fatal(err)
		}
		if err := warm.Invoke(); err != nil {
			t.Fatal(err)
		}
		got, err := warm.Output(0)
		if err != nil {
			t.Fatal(err)
		}
		if kept := i > 0 && batches[i-1] == batch; (got == last) != kept {
			t.Errorf("Invoke %d at batch %d: output in the last Invoke's tensor %v, want %v", i+1, batch, got == last, kept)
		}
		if !sameBits(got, invoke(t, m, in)) {
			t.Errorf("Invoke %d at batch %d: output differs from a fresh interpreter's", i+1, batch)
		}
		last = got
	}
}

// recordingDevice is a null device that remembers what was registered.
type recordingDevice struct {
	*device.Null
	allocs map[string]int64
}

func (d *recordingDevice) Alloc(name string, bytes int64) { d.allocs[name] = bytes }

// TestServingArenaIsThePlannedPeak: the arena an interpreter registers
// for serve-steady's batch-1 densenet and serve-fleet's batch-16 MNIST
// MLP stage is its slabs, and the slabs are the most its activations
// hold live at one op, to the byte.
func TestServingArenaIsThePlannedPeak(t *testing.T) {
	mlp := zooLite(t, models.MNISTMLP(1), false)
	for _, tc := range []struct {
		name  string
		model *tflite.Model
		input *tf.Tensor
		want  int64
	}{
		{"batch-1 densenet", models.BuildInferenceModel(models.Densenet), models.RandomImageInput(models.Densenet, 1, 3), densenetB1Slab},
		{"batch-16 MLP", mlp, tf.RandNormal(tf.Shape{16, 28, 28, 1}, 1, 3), mlpB16Slab},
	} {
		dev := &recordingDevice{Null: device.NewNull(), allocs: map[string]int64{}}
		ip, err := tflite.NewInterpreter(tc.model, tflite.WithDevice(dev))
		if err != nil {
			t.Fatal(err)
		}
		if err := ip.SetInput(0, tc.input); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		slab, peak, arena := tflite.SlabBytes(ip), tflite.PeakLiveBytes(ip), dev.allocs["tflite/arena"]
		t.Logf("%s: tflite/arena %d B: slabs %d B, at most %d B live at once", tc.name, arena, slab, peak)
		if slab != peak || slab != tc.want || arena != slab {
			t.Errorf("%s: tflite/arena %d B, slabs %d B, at most %d B live at once; want all %d", tc.name, arena, slab, peak, tc.want)
		}
		ip.Close()
	}
}

// FuzzLiteModel drives a model file the way a serving replica does —
// Unmarshal, AllocateTensors, Invokes on small inputs — over arbitrary
// bytes. Nothing may panic or size an allocation from an unchecked count,
// and a file that loads is in canonical form: it re-marshals to the same
// bytes. Invoke is repeatable: input A, then a different input B, then A
// again on the same interpreter gives A's outputs bit for bit, which is
// what an activation plan that leaks state between Invokes breaks (an
// accumulator not cleared, one buffer under two live tensors, a
// Reshape's storage handed back while it is still read). Every clean
// Invoke's layout must also be sound against the liveness the test
// derives itself (LayoutFault), as FuzzGraphRun holds a Session's.
func FuzzLiteModel(f *testing.F) {
	for _, build := range []func(int64) models.Handles{models.MNISTMLP, models.MNISTCNN} {
		for _, quant := range []bool{false, true} {
			f.Add(zooLite(f, build(41), quant).Marshal())
		}
	}
	tiny := models.InferenceSpec{Name: "tiny", FileBytes: 4 << 10, GFLOPs: 1e-6, InputDim: 8, Classes: 4}
	f.Add(models.BuildInferenceModel(tiny).Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := tflite.Unmarshal(data)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Marshal(), data) {
			t.Fatal("loaded model does not re-marshal to the bytes it was read from")
		}
		ip, err := tflite.NewInterpreter(m)
		if err != nil {
			t.Fatalf("Unmarshal accepted what NewInterpreter rejects: %v", err)
		}
		defer ip.Close()
		if err := ip.AllocateTensors(); err != nil {
			return
		}
		shapes := make([]tf.Shape, len(m.Inputs))
		for i, idx := range m.Inputs {
			// The declared input shape with a batch of one, if it is small.
			elems := 1
			for _, d := range m.Tensors[idx].Shape {
				if d == -1 {
					d = 1
				}
				if d < 0 || d > 1<<12 || elems*d > 1<<12 {
					return
				}
				shapes[i], elems = append(shapes[i], d), elems*d
			}
		}
		// invoke feeds every input from seed and returns copies of the
		// outputs, or nil if Invoke fails.
		invoke := func(seed int64) []*tf.Tensor {
			for i, shape := range shapes {
				if err := ip.SetInput(i, tf.RandNormal(shape, 1, seed+int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := ip.Invoke(); err != nil {
				return nil
			}
			if fault := tflite.LayoutFault(ip); fault != "" {
				t.Fatal(fault)
			}
			outs := make([]*tf.Tensor, len(m.Outputs))
			for i := range m.Outputs {
				out, err := ip.Output(i)
				if err != nil {
					t.Fatalf("output %d after a clean Invoke: %v", i, err)
				}
				outs[i] = out.Clone()
			}
			return outs
		}
		a := invoke(7)
		if a == nil {
			return
		}
		invoke(70)
		again := invoke(7)
		if again == nil {
			t.Fatal("input A failed after input B, and succeeded before it")
		}
		for i := range a {
			if !sameBits(a[i], again[i]) {
				t.Fatalf("output %d of input A changed after input B ran on the same interpreter", i)
			}
		}
	})
}

// sameBits reports whether a and b have one dtype, shape and bit pattern.
func sameBits(a, b *tf.Tensor) bool {
	if a.DType() != b.DType() || !a.Shape().Equal(b.Shape()) {
		return false
	}
	if a.DType() == tf.Int32 {
		return slices.Equal(a.Ints(), b.Ints())
	}
	return slices.EqualFunc(a.Floats(), b.Floats(), func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
