package tflite

import (
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
)

// Interpreter executes a flat model forward-only, with a preallocated
// weight set and a transient activation arena, charging its work to a
// device. Weights are accessed with the streaming pattern: they are
// read-only and touched sequentially, which is why TensorFlow Lite
// inference degrades gracefully past the EPC limit where the full
// TensorFlow runtime thrashes (paper §5.3 #4).
type Interpreter struct {
	model *Model
	dev   device.Device

	weights   []*tf.Tensor // dequantized scratch view is built lazily per op
	rawInt8   [][]byte     // int8 weights kept resident in quantized form
	scales    []float64
	values    []*tf.Tensor
	allocated bool
	arenaPeak int64
	id        string
}

// Option configures an interpreter.
type Option func(*Interpreter)

// WithDevice charges the interpreter's work to dev.
func WithDevice(dev device.Device) Option {
	return func(ip *Interpreter) { ip.dev = dev }
}

// WithInstanceID namespaces the interpreter's device allocations so
// several interpreters can share one enclave (scale-up experiments).
func WithInstanceID(id string) Option {
	return func(ip *Interpreter) { ip.id = id }
}

// NewInterpreter wraps a model.
func NewInterpreter(m *Model, opts ...Option) (*Interpreter, error) {
	if m == nil {
		return nil, fmt.Errorf("tflite: nil model")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	ip := &Interpreter{
		model:   m,
		weights: make([]*tf.Tensor, len(m.Tensors)),
		rawInt8: make([][]byte, len(m.Tensors)),
		scales:  make([]float64, len(m.Tensors)),
		id:      "tflite",
	}
	for _, o := range opts {
		o(ip)
	}
	if ip.dev == nil {
		ip.dev = device.NewNull()
	}
	return ip, nil
}

// AllocateTensors materializes weight tensors and registers the model's
// residency with the device.
func (ip *Interpreter) AllocateTensors() error {
	if ip.allocated {
		return nil
	}
	var residentBytes int64
	for i, spec := range ip.model.Tensors {
		if spec.Buffer < 0 {
			continue
		}
		raw := ip.model.Buffers[spec.Buffer]
		switch spec.Type {
		case TypeFloat32:
			if len(raw)%4 != 0 {
				return fmt.Errorf("tflite: buffer for %q not float32-aligned", spec.Name)
			}
			t, err := newWeight(spec, len(raw)/4)
			if err != nil {
				return err
			}
			if err := tf.DecodeElementsInto(t, raw); err != nil {
				return err
			}
			ip.weights[i] = t
		case TypeInt8:
			// Quantized weights stay resident in int8 form; they are
			// dequantized per use into transient scratch.
			ip.rawInt8[i] = raw
			ip.scales[i] = spec.Scale
		default:
			return fmt.Errorf("tflite: weight %q has bad type", spec.Name)
		}
		residentBytes += int64(len(raw))
	}
	ip.dev.AllocReadOnly(ip.id+"/weights", residentBytes)
	ip.allocated = true
	return nil
}

// Close releases the interpreter's device registrations.
func (ip *Interpreter) Close() {
	ip.dev.Free(ip.id + "/weights")
	ip.dev.Free(ip.id + "/arena")
}

// weight returns the float32 view of weight tensor i, dequantizing int8
// weights into scratch (charged as compute).
func (ip *Interpreter) weight(i int) (*tf.Tensor, error) {
	if w := ip.weights[i]; w != nil {
		return w, nil
	}
	raw := ip.rawInt8[i]
	if raw == nil {
		return nil, fmt.Errorf("tflite: tensor %d is not a weight", i)
	}
	t, err := newWeight(ip.model.Tensors[i], len(raw))
	if err != nil {
		return nil, err
	}
	vals, scale := t.Floats(), float32(ip.scales[i])
	for j, b := range raw {
		vals[j] = float32(int8(b)) * scale
	}
	ip.dev.Compute(int64(len(raw)))
	return t, nil
}

// newWeight allocates the Float32 tensor a weight buffer of n elements
// decodes into, once the file's declared shape is known to hold exactly
// n: a negative dimension or an overflowing product matches no buffer.
func newWeight(spec TensorSpec, n int) (*tf.Tensor, error) {
	elems := 1
	for _, d := range spec.Shape {
		if d < 0 || (d > 0 && elems > math.MaxInt/d) {
			elems = -1
			break
		}
		elems *= d
	}
	if elems != n {
		return nil, fmt.Errorf("tflite: weight %q: shape %v does not hold %d elements", spec.Name, spec.Shape, n)
	}
	return tf.NewTensor(tf.Float32, tf.Shape(spec.Shape)), nil
}

// SetInput feeds model input slot i.
func (ip *Interpreter) SetInput(i int, t *tf.Tensor) error {
	if i < 0 || i >= len(ip.model.Inputs) {
		return fmt.Errorf("tflite: input %d of %d", i, len(ip.model.Inputs))
	}
	if ip.values == nil {
		ip.values = make([]*tf.Tensor, len(ip.model.Tensors))
	}
	ip.values[ip.model.Inputs[i]] = t
	return nil
}

// Output returns model output slot i after Invoke.
func (ip *Interpreter) Output(i int) (*tf.Tensor, error) {
	if i < 0 || i >= len(ip.model.Outputs) {
		return nil, fmt.Errorf("tflite: output %d of %d", i, len(ip.model.Outputs))
	}
	v := ip.values[ip.model.Outputs[i]]
	if v == nil {
		return nil, fmt.Errorf("tflite: output %d not computed; call Invoke", i)
	}
	return v, nil
}

// Invoke runs the model over the current inputs.
func (ip *Interpreter) Invoke() error {
	if !ip.allocated {
		if err := ip.AllocateTensors(); err != nil {
			return err
		}
	}
	if ip.values == nil {
		return fmt.Errorf("tflite: no inputs set")
	}
	var arena int64
	for oi := range ip.model.Ops {
		op := &ip.model.Ops[oi]
		out, err := ip.run(op)
		if err != nil {
			return fmt.Errorf("tflite: op %d (%s): %w", oi, op.Code, err)
		}
		ip.values[op.Outputs[0]] = out
		arena += out.Bytes()
	}
	if arena > ip.arenaPeak {
		ip.arenaPeak = arena
		ip.dev.Alloc(ip.id+"/arena", arena)
	}
	return nil
}

// value fetches an activation or weight as float32.
func (ip *Interpreter) value(i int) (*tf.Tensor, error) {
	if v := ip.values[i]; v != nil {
		return v, nil
	}
	return ip.weight(i)
}

// charge reports one op's work. CostScale applies to FLOPs only: memory
// traffic is the real bytes moved (see tf.Node.SetCostScale).
func (ip *Interpreter) charge(op *OpSpec, flops int64, activationBytes, weightBytes int64) {
	scale := op.CostScale
	if scale <= 0 {
		scale = 1
	}
	ip.dev.Compute(int64(float64(flops) * scale))
	if activationBytes > 0 {
		ip.dev.Access(activationBytes, false)
	}
	if weightBytes > 0 {
		ip.dev.Access(weightBytes, true)
	}
}

// run executes one op on its first input x. Every kernel but Reshape
// reads Float32 data, and a request tensor's dtype is the caller's
// choice, not the model's, so it is checked here.
func (ip *Interpreter) run(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	if op.Code == OpReshape {
		return x.Reshape(tf.Shape(op.NewShape))
	}
	if x.DType() != tf.Float32 {
		return nil, fmt.Errorf("input is %v, want float32", x.DType())
	}
	switch op.Code {
	case OpFullyConnected, OpConv2D:
		return ip.runLinear(op, x)
	case OpMaxPool, OpAvgPool:
		return ip.runPool(op, x)
	case OpSoftmax:
		return ip.runSoftmax(op, x)
	case OpRelu:
		return ip.runRelu(op, x)
	case OpAdd:
		return ip.runAdd(op, x)
	case OpArgMax:
		return ip.runArgMax(op, x)
	default:
		return nil, fmt.Errorf("unknown opcode %d", op.Code)
	}
}

// runLinear executes a FullyConnected or Conv2D with its optional bias
// (input 2) and fused activation.
func (ip *Interpreter) runLinear(op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	w, err := ip.weight(op.Inputs[1])
	if err != nil {
		return nil, err
	}
	var bias *tf.Tensor
	if len(op.Inputs) > 2 {
		if bias, err = ip.weight(op.Inputs[2]); err != nil {
			return nil, err
		}
	}
	var out *tf.Tensor
	var channels int
	var flops int64
	if op.Code == OpFullyConnected {
		xs, ws := x.Shape(), w.Shape()
		if len(xs) != 2 || len(ws) != 2 || xs[1] != ws[0] {
			return nil, fmt.Errorf("shapes %v x %v", xs, ws)
		}
		m, k, n := xs[0], xs[1], ws[1]
		out, channels, flops = tf.NewTensor(tf.Float32, tf.Shape{m, n}), n, 2*int64(m)*int64(k)*int64(n)
		// Few rows over large weights split by columns (kernels' splitPlan).
		kernels.MatMulInto(out.Floats(), x.Floats(), w.Floats(), m, k, n, ip.dev.Threads())
	} else {
		geo, err := kernels.ConvGeom(x.Shape(), w.Shape(), max(op.Stride, 1), op.Padding == PadSame)
		if err != nil {
			return nil, err
		}
		out, channels, flops = tf.NewTensor(tf.Float32, tf.Shape{geo.N, geo.OH, geo.OW, geo.F}), geo.F, geo.ConvFLOPs()
		kernels.Conv2DInto(out.Floats(), x.Floats(), w.Floats(), geo)
	}
	if bias != nil {
		if bias.NumElements() != channels {
			return nil, fmt.Errorf("bias has %d elements for %d output channels", bias.NumElements(), channels)
		}
		kernels.BiasAdd(out.Floats(), out.Floats(), bias.Floats())
	}
	if op.Activation == ActRelu {
		kernels.Relu(out.Floats(), out.Floats())
	}
	ip.charge(op, flops, x.Bytes()+out.Bytes(), w.Bytes())
	return out, nil
}

func (ip *Interpreter) runPool(op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	k, stride := op.K, op.Stride
	if k < 1 {
		k = 2
	}
	if stride < 1 {
		stride = k
	}
	geo, err := kernels.PoolGeom(x.Shape(), k, stride)
	if err != nil {
		return nil, err
	}
	out := tf.NewTensor(tf.Float32, tf.Shape{geo.N, geo.OH, geo.OW, geo.C})
	if op.Code == OpMaxPool {
		kernels.MaxPool(out.Floats(), x.Floats(), geo, nil)
	} else {
		kernels.AvgPool(out.Floats(), x.Floats(), geo)
	}
	ip.charge(op, int64(out.NumElements())*int64(k*k), x.Bytes()+out.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runSoftmax(op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	_, cols := kernels.RowsCols(x.Shape())
	out := tf.NewTensor(tf.Float32, x.Shape())
	if err := kernels.SoftmaxRows(out.Floats(), x.Floats(), cols); err != nil {
		return nil, err
	}
	ip.charge(op, 4*int64(x.NumElements()), 2*x.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runRelu(op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	out := tf.NewTensor(tf.Float32, x.Shape())
	kernels.Relu(out.Floats(), x.Floats())
	ip.charge(op, int64(x.NumElements()), 2*x.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runAdd(op *OpSpec, a *tf.Tensor) (*tf.Tensor, error) {
	b, err := ip.value(op.Inputs[1])
	if err != nil {
		return nil, err
	}
	if b.DType() != tf.Float32 || a.NumElements() != b.NumElements() {
		return nil, fmt.Errorf("Add: %d float32 elements vs %d %v", a.NumElements(), b.NumElements(), b.DType())
	}
	out := tf.NewTensor(tf.Float32, a.Shape())
	ad, bd, od := a.Floats(), b.Floats(), out.Floats()
	for i := range od {
		od[i] = ad[i] + bd[i]
	}
	ip.charge(op, int64(a.NumElements()), 3*a.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runArgMax(op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	rows, cols := kernels.RowsCols(x.Shape())
	out := tf.NewTensor(tf.Int32, tf.Shape{rows})
	if err := kernels.ArgMaxRows(out.Ints(), x.Floats(), cols); err != nil {
		return nil, err
	}
	ip.charge(op, int64(x.NumElements()), x.Bytes(), 0)
	return out, nil
}
