package tflite

import (
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
)

// Interpreter executes a flat model forward-only, with a preallocated
// weight set and an activation plan made at AllocateTensors and laid out
// before each Invoke, charging its work to a device. Weights are
// accessed with the streaming pattern: they are read-only and touched
// sequentially, which is why TensorFlow Lite inference degrades
// gracefully past the EPC limit where the full TensorFlow runtime
// thrashes (paper §5.3 #4). All its memory is its own, as in TFLite: a
// model output is one tensor per output, kept outside the slabs and
// reused while its shape holds, so it is valid until the next Invoke;
// a caller that keeps one copies it. Its other activations lie in the
// slabs (plan says how).
type Interpreter struct {
	model *Model
	dev   device.Device

	weights   []*tf.Tensor // dequantized scratch view is built lazily per op
	rawInt8   [][]byte     // int8 weights kept resident in quantized form
	scales    []float64
	inputs    []*tf.Tensor // by input slot, as SetInput left them
	values    []*tf.Tensor // by tensor index, what the current Invoke reads there
	plan      plan
	slots     []tf.Tensor  // op k's output header, re-pointed every Invoke
	outs      []*tf.Tensor // per op the plan keeps out of the slabs: the output it computes into
	slabs     tf.Slabs     // the storage the plan's spans lie in
	allocated bool
	arenaPeak int64
	id        string
}

// plan is the activation memory plan AllocateTensors derives from the op
// list, laid out as a Session lays out a Run (tf.Layout). Op k's output
// is a span of its own, or, for a Reshape, a view of the storage it
// reshapes: its root is the op whose output that storage is, and it has
// none when that is an input's or a weight's, which no span holds. Every
// op reads what the last op before it to write a tensor index wrote
// there, so a hostile model that writes an index twice, reads one twice
// or runs dead ops reads the same storage on every Invoke. A span is
// live from its op to the last op that reads it or reshapes it. Model
// outputs, and any storage they view, are kept instead: in no span, in
// a tensor of the op's own that the next Invoke of the same shape
// computes into again. They take no room in the slabs, nor in the arena
// the device is charged.
//
// Only the spans' sizes follow the inputs' shapes. Before each Invoke,
// shape derives every op's output shape and sizes the spans, and the
// spans are laid out again when a size moved: a batch that changes
// between Invokes replaces the slabs.
type plan struct {
	tf.Layout
	kept []bool // per op: its output is a model output, or storage a model output views
	span []int  // per op: the span its output is drawn from, or -1

	at     []int          // per tensor index: the op whose output it holds so far this Invoke, or -1
	dtypes []tf.DType     // per op: its output's dtype this Invoke
	shapes []tf.Shape     // per op: its output's shape this Invoke
	geoms  []kernels.Geom // per op: a convolution's or pool's geometry this Invoke
}

func newPlan(m *Model) plan {
	n := len(m.Ops)
	p := plan{
		kept: make([]bool, n), span: make([]int, n), at: make([]int, len(m.Tensors)),
		dtypes: make([]tf.DType, n), shapes: make([]tf.Shape, n), geoms: make([]kernels.Geom, n),
	}
	writer := p.at // per tensor index: the op whose output it holds so far, or -1
	for i := range writer {
		writer[i] = -1
	}
	root := make([]int, n) // per op
	rootOf := func(idx int) int {
		if w := writer[idx]; w >= 0 {
			return root[w]
		}
		return -1
	}
	last := make([]int, n) // per root: the last op that reads or reshapes it
	for k, op := range m.Ops {
		for _, in := range op.Inputs {
			if r := rootOf(in); r >= 0 {
				last[r] = k
			}
		}
		root[k], last[k] = k, k
		if op.Code == OpReshape {
			root[k] = rootOf(op.Inputs[0])
		}
		writer[op.Outputs[0]] = k
	}
	for _, idx := range m.Outputs {
		if w := writer[idx]; w >= 0 {
			p.kept[w] = true
			if r := root[w]; r >= 0 {
				p.kept[r] = true
			}
		}
	}
	for k, r := range root {
		p.span[k] = -1
		if r == k && !p.kept[k] {
			p.span[k] = p.Span(m.Ops[k].Code == OpArgMax, k, last[k])
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
		elems := len(raw)
		if spec.Type == TypeFloat32 {
			if elems%4 != 0 {
				return fmt.Errorf("tflite: buffer for %q not float32-aligned", spec.Name)
			}
			elems /= 4
		}
		if err := checkWeight(spec, elems); err != nil {
			return err
		}
		if spec.Type == TypeFloat32 {
			t := tf.NewTensor(tf.Float32, tf.Shape(spec.Shape))
			if err := tf.DecodeElementsInto(t, raw); err != nil {
				return err
			}
			ip.weights[i] = t
		} else {
			// Quantized weights stay resident in int8 form; they are
			// dequantized per use into transient scratch.
			ip.rawInt8[i], ip.scales[i] = raw, spec.Scale
		}
		residentBytes += int64(len(raw))
	}
	ip.dev.AllocReadOnly(ip.id+"/weights", residentBytes)
	ip.plan, ip.slots, ip.outs = newPlan(ip.model), make([]tf.Tensor, len(ip.model.Ops)), make([]*tf.Tensor, len(ip.model.Ops))
	ip.allocated = true
	return nil
}

// Close releases the interpreter's device registrations.
func (ip *Interpreter) Close() {
	ip.dev.Free(ip.id + "/weights")
	ip.dev.Free(ip.id + "/arena")
}

// weight returns the float32 view of weight tensor i, which shape has
// checked is one, dequantizing int8 weights into scratch (charged as
// compute).
func (ip *Interpreter) weight(i int) *tf.Tensor {
	if w := ip.weights[i]; w != nil {
		return w
	}
	raw := ip.rawInt8[i]
	t := tf.NewTensor(tf.Float32, tf.Shape(ip.model.Tensors[i].Shape))
	vals, scale := t.Floats(), float32(ip.scales[i])
	for j, b := range raw {
		vals[j] = float32(int8(b)) * scale
	}
	ip.dev.Compute(int64(len(raw)))
	return t
}

// checkWeight checks that the file's declared shape for a weight holds
// exactly the n elements of its buffer: a negative dimension or an
// overflowing product matches no buffer.
func checkWeight(spec TensorSpec, n int) error {
	elems := 1
	for _, d := range spec.Shape {
		if d < 0 || (d > 0 && elems > math.MaxInt/d) {
			elems = -1
			break
		}
		elems *= d
	}
	if elems != n {
		return fmt.Errorf("tflite: weight %q: shape %v does not hold %d elements", spec.Name, spec.Shape, n)
	}
	return nil
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

// Output returns model output slot i after Invoke. It is the
// interpreter's, valid until the next Invoke, which may compute into it
// again: copy to keep it, or to feed it back in.
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
	if err := ip.shape(); err != nil {
		return err
	}
	ip.plan.Lay()
	ip.plan.Fit(&ip.slabs)
	for k := range ip.model.Ops {
		op := &ip.model.Ops[k]
		out, err := ip.run(k, op)
		if err != nil {
			return fmt.Errorf("tflite: op %d (%s): %w", k, op.Code, err)
		}
		ip.values[op.Outputs[0]] = out
	}
	// The device is charged the most the slabs have held. The kept
	// outputs are left out, as a Session's results are, and the weights
	// are registered on their own.
	if f32, i32 := ip.plan.Lens(); 4*int64(f32+i32) > ip.arenaPeak {
		ip.arenaPeak = 4 * int64(f32+i32)
		ip.dev.Alloc(ip.id+"/arena", ip.arenaPeak)
	}
	return nil
}

// shape derives the dtype and shape of every op's output for this
// Invoke's inputs, from the shapes its inputs hold and its weights
// declare, and sizes the spans for them. It makes every check an op's
// kernel needs of those shapes, so a kernel checks nothing.
func (ip *Interpreter) shape() error {
	p := &ip.plan
	for i := range p.at {
		p.at[i] = -1
	}
	for k := range ip.model.Ops {
		op := &ip.model.Ops[k]
		dtype, shape, err := ip.shapeOf(k, op)
		if err != nil {
			return fmt.Errorf("tflite: op %d (%s): %w", k, op.Code, err)
		}
		p.dtypes[k], p.shapes[k], p.at[op.Outputs[0]] = dtype, shape, k
		if s := p.span[k]; s >= 0 {
			p.Size(s, shape.NumElements())
		}
	}
	return nil
}

// shapeOf derives op k's output dtype and shape, building the shape in
// the storage of the one it had last Invoke, and keeps a convolution's
// or pool's geometry for its kernel.
func (ip *Interpreter) shapeOf(k int, op *OpSpec) (tf.DType, tf.Shape, error) {
	p, out := &ip.plan, ip.plan.shapes[k][:0]
	dtype, x, err := ip.holds(op.Inputs[0], false)
	switch {
	case err != nil:
		return 0, nil, err
	case op.Code == OpReshape:
		out, err = tf.Reshaped(out, x.NumElements(), tf.Shape(op.NewShape))
		return dtype, out, err
	case dtype != tf.Float32:
		// A request tensor's dtype is the caller's choice, not the model's.
		return 0, nil, fmt.Errorf("input is %v, want float32", dtype)
	}
	switch op.Code {
	case OpFullyConnected, OpConv2D:
		_, w, err := ip.holds(op.Inputs[1], true)
		switch {
		case err != nil:
			return 0, nil, err
		case op.Code == OpConv2D:
			if p.geoms[k], err = kernels.ConvGeom(x, w, max(op.Stride, 1), op.Padding == PadSame); err != nil {
				return 0, nil, err
			}
			out = append(out, p.geoms[k].N, p.geoms[k].OH, p.geoms[k].OW, p.geoms[k].F)
		case len(x) != 2 || len(w) != 2 || x[1] != w[0]:
			return 0, nil, fmt.Errorf("shapes %v x %v", x, w)
		default:
			out = append(out, x[0], w[1])
		}
		if len(op.Inputs) > 2 {
			_, bias, err := ip.holds(op.Inputs[2], true)
			if channels := out[len(out)-1]; err == nil && bias.NumElements() != channels {
				err = fmt.Errorf("bias has %d elements for %d output channels", bias.NumElements(), channels)
			}
			if err != nil {
				return 0, nil, err
			}
		}
	case OpMaxPool, OpAvgPool:
		size, stride := op.K, op.Stride
		if size < 1 {
			size = 2
		}
		if stride < 1 {
			stride = size
		}
		if p.geoms[k], err = kernels.PoolGeom(x, size, stride); err != nil {
			return 0, nil, err
		}
		out = append(out, p.geoms[k].N, p.geoms[k].OH, p.geoms[k].OW, p.geoms[k].C)
	case OpSoftmax, OpRelu, OpAdd:
		if _, cols := kernels.RowsCols(x); op.Code == OpSoftmax && cols < 1 {
			return 0, nil, fmt.Errorf("softmax over %d columns", cols)
		}
		if op.Code == OpAdd {
			btype, b, err := ip.holds(op.Inputs[1], false)
			if err == nil && (btype != tf.Float32 || x.NumElements() != b.NumElements()) {
				err = fmt.Errorf("Add: %d float32 elements vs %d %v", x.NumElements(), b.NumElements(), btype)
			}
			if err != nil {
				return 0, nil, err
			}
		}
		out = append(out, x...)
	case OpArgMax:
		rows, cols := kernels.RowsCols(x)
		if cols < 1 {
			return 0, nil, fmt.Errorf("argmax over %d columns", cols)
		}
		return tf.Int32, append(out, rows), nil
	default:
		return 0, nil, fmt.Errorf("unknown opcode %d", op.Code)
	}
	return tf.Float32, out, nil
}

// holds is the dtype and shape tensor index idx holds at this point of
// the Invoke: an earlier op's output, a model input or a weight, the
// last alone if weight is set. A weight's is the shape it declares,
// which AllocateTensors checked it holds.
func (ip *Interpreter) holds(idx int, weight bool) (tf.DType, tf.Shape, error) {
	if k := ip.plan.at[idx]; k >= 0 && !weight {
		return ip.plan.dtypes[k], ip.plan.shapes[k], nil
	}
	if v := ip.values[idx]; v != nil && !weight {
		return v.DType(), v.Shape(), nil
	}
	if ip.weights[idx] == nil && ip.rawInt8[idx] == nil {
		return 0, nil, fmt.Errorf("tflite: tensor %d is not a weight", idx)
	}
	return tf.Float32, tf.Shape(ip.model.Tensors[idx].Shape), nil
}

// value fetches an activation or weight as float32.
func (ip *Interpreter) value(i int) *tf.Tensor {
	if v := ip.values[i]; v != nil {
		return v
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

// output is the output of the op at slot, of the dtype and shape shape
// derived, cleared if zero is set: the tensor the op keeps if the plan
// keeps it out of the slabs, made again when its dtype or shape moved,
// else the slot's header re-pointed at its span.
func (ip *Interpreter) output(slot int, zero bool) *tf.Tensor {
	p := &ip.plan
	if p.span[slot] < 0 {
		t := tf.Reuse(ip.outs[slot], p.dtypes[slot], p.shapes[slot])
		if zero && t == ip.outs[slot] {
			clear(t.Floats()) // only a FullyConnected or Conv2D asks, whose outputs are float32
		}
		ip.outs[slot] = t
		return t
	}
	p.Draw(&ip.slabs, &ip.slots[slot], p.span[slot], p.dtypes[slot], p.shapes[slot], zero)
	return &ip.slots[slot]
}

// run executes op, at slot in the op list, whose shapes shape has
// checked: its kernel checks nothing.
func (ip *Interpreter) run(slot int, op *OpSpec) (out *tf.Tensor, err error) {
	x, geo := ip.value(op.Inputs[0]), ip.plan.geoms[slot]
	switch op.Code {
	case OpReshape:
		return &ip.slots[slot], tf.ReshapeInto(&ip.slots[slot], x, ip.plan.shapes[slot])
	case OpFullyConnected, OpConv2D:
		return ip.runLinear(slot, op, x), nil
	}
	out = ip.output(slot, false)
	_, cols := kernels.RowsCols(x.Shape())
	switch op.Code {
	case OpMaxPool, OpAvgPool:
		if op.Code == OpMaxPool {
			kernels.MaxPool(out.Floats(), x.Floats(), geo, nil)
		} else {
			kernels.AvgPool(out.Floats(), x.Floats(), geo)
		}
		ip.charge(op, int64(out.NumElements())*int64(geo.KH*geo.KW), x.Bytes()+out.Bytes(), 0)
	case OpSoftmax:
		err = kernels.SoftmaxRows(out.Floats(), x.Floats(), cols)
		ip.charge(op, 4*int64(x.NumElements()), 2*x.Bytes(), 0)
	case OpRelu:
		kernels.Relu(out.Floats(), x.Floats())
		ip.charge(op, int64(x.NumElements()), 2*x.Bytes(), 0)
	case OpAdd:
		ad, bd, od := x.Floats(), ip.value(op.Inputs[1]).Floats(), out.Floats()
		for i := range od {
			od[i] = ad[i] + bd[i]
		}
		ip.charge(op, int64(x.NumElements()), 3*x.Bytes(), 0)
	case OpArgMax:
		err = kernels.ArgMaxRows(out.Ints(), x.Floats(), cols)
		ip.charge(op, int64(x.NumElements()), x.Bytes(), 0)
	}
	return out, err
}

// runLinear executes a FullyConnected or Conv2D with its optional bias
// (input 2) and fused activation.
func (ip *Interpreter) runLinear(slot int, op *OpSpec, x *tf.Tensor) *tf.Tensor {
	w := ip.weight(op.Inputs[1])
	var bias *tf.Tensor
	if len(op.Inputs) > 2 {
		bias = ip.weight(op.Inputs[2])
	}
	out := ip.output(slot, true)
	flops := ip.plan.geoms[slot].ConvFLOPs()
	if op.Code == OpFullyConnected {
		m, k, n := x.Shape()[0], x.Shape()[1], w.Shape()[1]
		flops = 2 * int64(m) * int64(k) * int64(n)
		// Few rows over large weights split by columns (kernels' splitPlan).
		kernels.MatMulInto(out.Floats(), x.Floats(), w.Floats(), m, k, n, ip.dev.Threads())
	} else {
		kernels.Conv2DInto(out.Floats(), x.Floats(), w.Floats(), ip.plan.geoms[slot])
	}
	if bias != nil {
		kernels.BiasAdd(out.Floats(), out.Floats(), bias.Floats())
	}
	if op.Activation == ActRelu {
		kernels.Relu(out.Floats(), out.Floats())
	}
	ip.charge(op, flops, x.Bytes()+out.Bytes(), w.Bytes())
	return out
}
