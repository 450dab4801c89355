package tflite

import (
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
)

// Interpreter executes a flat model forward-only, with a preallocated
// weight set and an activation arena planned at AllocateTensors, charging
// its work to a device. Weights are accessed with the streaming pattern:
// they are read-only and touched sequentially, which is why TensorFlow
// Lite inference degrades gracefully past the EPC limit where the full
// TensorFlow runtime thrashes (paper §5.3 #4). Its outputs are the
// caller's, its other activations its own until the next Invoke (the
// package comment says whose memory is whose; plan says how).
type Interpreter struct {
	model *Model
	dev   device.Device

	weights   []*tf.Tensor // dequantized scratch view is built lazily per op
	rawInt8   [][]byte     // int8 weights kept resident in quantized form
	scales    []float64
	inputs    []*tf.Tensor // by input slot, as SetInput left them
	values    []*tf.Tensor // by tensor index, what the current Invoke reads there
	plan      plan
	slots     []tf.Tensor // op k's output header, re-pointed every Invoke
	arena     tf.Arena
	allocated bool
	arenaPeak int64
	id        string
}

// plan is the activation memory plan AllocateTensors derives from the op
// list. Op k's output is storage drawn from the arena, or, for a
// Reshape, a view of the storage it reshapes: root[k] is the op that drew
// it, or -1 when it is an input's or a weight's, which the arena never
// takes. Every op reads what the last op before it to write a tensor
// index wrote there, so a hostile model that writes an index twice, reads
// one twice or runs dead ops reads the same storage on every Invoke.
// Storage goes back to the arena as soon as the last op that reads it, or
// reshapes it, has run. Model outputs, and any storage they view, are
// given away instead: fresh on every Invoke and never handed back, as
// Session.Run gives its results away.
type plan struct {
	root    []int   // per op: the op whose drawn storage its output is, or -1
	given   []bool  // per op: its output is a model output, or storage a model output views
	release [][]int // per op: the ops whose storage it is the last to read
}

func newPlan(m *Model) plan {
	p := plan{root: make([]int, len(m.Ops)), given: make([]bool, len(m.Ops)), release: make([][]int, len(m.Ops))}
	writer := make([]int, len(m.Tensors)) // the op whose output an index holds so far, or -1
	for i := range writer {
		writer[i] = -1
	}
	root := func(idx int) int {
		if w := writer[idx]; w >= 0 {
			return p.root[w]
		}
		return -1
	}
	last := make([]int, len(m.Ops)) // per root: the last op that reads or reshapes it
	for k, op := range m.Ops {
		for _, in := range op.Inputs {
			if r := root(in); r >= 0 {
				last[r] = k
			}
		}
		p.root[k] = k
		if op.Code == OpReshape {
			p.root[k] = root(op.Inputs[0])
		}
		if r := p.root[k]; r >= 0 {
			last[r] = k
		}
		writer[op.Outputs[0]] = k
	}
	for _, idx := range m.Outputs {
		if w := writer[idx]; w >= 0 {
			p.given[w] = true
			if r := p.root[w]; r >= 0 {
				p.given[r] = true
			}
		}
	}
	for k, r := range p.root {
		if r == k && !p.given[k] {
			p.release[last[k]] = append(p.release[last[k]], k)
		}
	}
	return p
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
		values:  make([]*tf.Tensor, len(m.Tensors)),
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

// AllocateTensors materializes weight tensors, registers the model's
// residency with the device and plans the activations.
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
	ip.plan, ip.slots = newPlan(ip.model), make([]tf.Tensor, len(ip.model.Ops))
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
	if ip.inputs == nil {
		ip.inputs = make([]*tf.Tensor, len(ip.model.Inputs))
	}
	ip.inputs[i] = t
	return nil
}

// Output returns model output slot i after Invoke. It is the caller's:
// no later Invoke writes to it.
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
	if ip.inputs == nil {
		return fmt.Errorf("tflite: no inputs set")
	}
	clear(ip.values)
	for i, t := range ip.inputs {
		if t != nil {
			ip.values[ip.model.Inputs[i]] = t
		}
	}
	defer ip.arena.Recycle()
	// The device is charged the sum of every op's output, as a Session
	// charges tf/arena: the cost model knows nothing of the plan.
	var arena int64
	for k := range ip.model.Ops {
		op := &ip.model.Ops[k]
		out, err := ip.run(k, op)
		if err != nil {
			return fmt.Errorf("tflite: op %d (%s): %w", k, op.Code, err)
		}
		ip.values[op.Outputs[0]] = out
		arena += out.Bytes()
		for _, r := range ip.plan.release[k] {
			ip.arena.Return(&ip.slots[r])
		}
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

// output is the output of dtype and shape of the op at slot: a fresh
// tensor if the plan gives it away, else the slot's header re-pointed at
// storage from the arena, cleared if zero.
func (ip *Interpreter) output(slot int, dtype tf.DType, shape tf.Shape, zero bool) *tf.Tensor {
	if ip.plan.given[slot] {
		return tf.NewTensor(dtype, shape)
	}
	ip.arena.Draw(&ip.slots[slot], dtype, shape, zero)
	return &ip.slots[slot]
}

// run executes op, at slot in the op list, on its first input x. Every
// kernel but Reshape reads Float32 data, and a request tensor's dtype is
// the caller's choice, not the model's, so it is checked here.
func (ip *Interpreter) run(slot int, op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	if op.Code == OpReshape {
		if ip.plan.given[slot] {
			return x.Reshape(tf.Shape(op.NewShape))
		}
		return &ip.slots[slot], tf.ReshapeInto(&ip.slots[slot], x, tf.Shape(op.NewShape))
	}
	if x.DType() != tf.Float32 {
		return nil, fmt.Errorf("input is %v, want float32", x.DType())
	}
	switch op.Code {
	case OpFullyConnected, OpConv2D:
		return ip.runLinear(slot, op, x)
	case OpMaxPool, OpAvgPool:
		return ip.runPool(slot, op, x)
	case OpSoftmax:
		return ip.runSoftmax(slot, op, x)
	case OpRelu:
		return ip.runRelu(slot, op, x)
	case OpAdd:
		return ip.runAdd(slot, op, x)
	case OpArgMax:
		return ip.runArgMax(slot, op, x)
	default:
		return nil, fmt.Errorf("unknown opcode %d", op.Code)
	}
}

// runLinear executes a FullyConnected or Conv2D with its optional bias
// (input 2) and fused activation.
func (ip *Interpreter) runLinear(slot int, op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
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
		out, channels, flops = ip.output(slot, tf.Float32, tf.Shape{m, n}, true), n, 2*int64(m)*int64(k)*int64(n)
		// Few rows over large weights split by columns (kernels' splitPlan).
		kernels.MatMulInto(out.Floats(), x.Floats(), w.Floats(), m, k, n, ip.dev.Threads())
	} else {
		geo, err := kernels.ConvGeom(x.Shape(), w.Shape(), max(op.Stride, 1), op.Padding == PadSame)
		if err != nil {
			return nil, err
		}
		out, channels, flops = ip.output(slot, tf.Float32, tf.Shape{geo.N, geo.OH, geo.OW, geo.F}, true), geo.F, geo.ConvFLOPs()
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

func (ip *Interpreter) runPool(slot int, op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
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
	out := ip.output(slot, tf.Float32, tf.Shape{geo.N, geo.OH, geo.OW, geo.C}, false)
	if op.Code == OpMaxPool {
		kernels.MaxPool(out.Floats(), x.Floats(), geo, nil)
	} else {
		kernels.AvgPool(out.Floats(), x.Floats(), geo)
	}
	ip.charge(op, int64(out.NumElements())*int64(k*k), x.Bytes()+out.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runSoftmax(slot int, op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	_, cols := kernels.RowsCols(x.Shape())
	out := ip.output(slot, tf.Float32, x.Shape(), false)
	if err := kernels.SoftmaxRows(out.Floats(), x.Floats(), cols); err != nil {
		return nil, err
	}
	ip.charge(op, 4*int64(x.NumElements()), 2*x.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runRelu(slot int, op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	out := ip.output(slot, tf.Float32, x.Shape(), false)
	kernels.Relu(out.Floats(), x.Floats())
	ip.charge(op, int64(x.NumElements()), 2*x.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runAdd(slot int, op *OpSpec, a *tf.Tensor) (*tf.Tensor, error) {
	b, err := ip.value(op.Inputs[1])
	if err != nil {
		return nil, err
	}
	if b.DType() != tf.Float32 || a.NumElements() != b.NumElements() {
		return nil, fmt.Errorf("Add: %d float32 elements vs %d %v", a.NumElements(), b.NumElements(), b.DType())
	}
	out := ip.output(slot, tf.Float32, a.Shape(), false)
	ad, bd, od := a.Floats(), b.Floats(), out.Floats()
	for i := range od {
		od[i] = ad[i] + bd[i]
	}
	ip.charge(op, int64(a.NumElements()), 3*a.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runArgMax(slot int, op *OpSpec, x *tf.Tensor) (*tf.Tensor, error) {
	rows, cols := kernels.RowsCols(x.Shape())
	out := ip.output(slot, tf.Int32, tf.Shape{rows}, false)
	if err := kernels.ArgMaxRows(out.Ints(), x.Floats(), cols); err != nil {
		return nil, err
	}
	ip.charge(op, int64(x.NumElements()), x.Bytes(), 0)
	return out, nil
}
