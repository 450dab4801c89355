// Package tflite reimplements the TensorFlow Lite role in secureTF: a
// small-footprint, forward-only interpreter over a compact flat model
// format. The paper's headline inference results (§5.3) hinge on exactly
// this property — a 1.9 MB interpreter binary plus streamed read-only
// weights keep the enclave working set near the EPC limit where the full
// TensorFlow runtime (87.4 MB binary, read-write graph state) thrashes.
//
// Beyond the paper's baseline, the converter implements the §7.2 "model
// optimization" future work: dead-node pruning, operator fusion
// (MatMul+BiasAdd+ReLU → FullyConnected, Conv2D+BiasAdd+ReLU → fused
// convolution) and optional int8 post-training weight quantization.
package tflite

import (
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/wire"
)

// BinarySize is the simulated in-enclave footprint of the TensorFlow
// Lite interpreter binary (the paper measures 1.9 MB).
const BinarySize int64 = 19 * (1 << 20) / 10

// TensorType is a model tensor element type.
type TensorType uint8

// Supported tensor types.
const (
	TypeFloat32 TensorType = 1
	TypeInt8    TensorType = 2
)

// OpCode identifies an operator.
type OpCode uint8

// Operators.
const (
	OpFullyConnected OpCode = iota + 1
	OpConv2D
	OpMaxPool
	OpAvgPool
	OpSoftmax
	OpReshape
	OpRelu
	OpAdd
	OpArgMax
)

// String names the opcode.
func (o OpCode) String() string {
	switch o {
	case OpFullyConnected:
		return "FULLY_CONNECTED"
	case OpConv2D:
		return "CONV_2D"
	case OpMaxPool:
		return "MAX_POOL_2D"
	case OpAvgPool:
		return "AVERAGE_POOL_2D"
	case OpSoftmax:
		return "SOFTMAX"
	case OpReshape:
		return "RESHAPE"
	case OpRelu:
		return "RELU"
	case OpAdd:
		return "ADD"
	case OpArgMax:
		return "ARG_MAX"
	default:
		return "UNKNOWN"
	}
}

// arity is the range of input counts the opcode's kernel reads (the
// upper end counts an optional bias); every op writes one output.
func (o OpCode) arity() (minIn, maxIn int, ok bool) {
	switch o {
	case OpFullyConnected, OpConv2D:
		return 2, 3, true
	case OpAdd:
		return 2, 2, true
	case OpMaxPool, OpAvgPool, OpSoftmax, OpReshape, OpRelu, OpArgMax:
		return 1, 1, true
	default:
		return 0, 0, false
	}
}

// Activation is a fused activation function.
type Activation uint8

// Fused activations.
const (
	ActNone Activation = 0
	ActRelu Activation = 1
)

// Padding modes.
const (
	PadValid uint8 = 0
	PadSame  uint8 = 1
)

// TensorSpec describes one tensor slot.
type TensorSpec struct {
	Name   string
	Type   TensorType
	Shape  []int // -1 marks the dynamic batch dimension
	Buffer int   // index into Model.Buffers, or -1 for activations
	Scale  float64
}

// OpSpec is one operator invocation.
type OpSpec struct {
	Code       OpCode
	Inputs     []int
	Outputs    []int
	Activation Activation
	Stride     int
	K          int
	Padding    uint8
	NewShape   []int // Reshape target
	CostScale  float64
}

// Model is a flat, self-contained inference model.
type Model struct {
	Tensors []TensorSpec
	Buffers [][]byte
	Ops     []OpSpec
	Inputs  []int
	Outputs []int
}

// WeightBytes is the total size of the model's weight buffers — the
// number that determines EPC pressure in the paper's Figures 5–7.
func (m *Model) WeightBytes() int64 {
	var total int64
	for _, b := range m.Buffers {
		total += int64(len(b))
	}
	return total
}

const modelMagic = "SLTF1"

// The fewest bytes one record of each table can occupy on the wire
// (empty name, empty slices), which is what bounds the table's declared
// count (wire.Reader.Count).
const (
	minTensorRecord = 4 + 1 + 4 + 4 + 8
	minBufferRecord = 4
	minOpRecord     = 3 + 4 + 4 + 3*4 + 8
)

// Marshal serializes the model into a buffer of exactly its length.
func (m *Model) Marshal() []byte {
	w := wire.Writer{Buf: append(make([]byte, 0, m.marshalLen()), modelMagic...)}
	w.U32(uint32(len(m.Tensors)))
	for _, t := range m.Tensors {
		w.Str(t.Name)
		w.U8(uint8(t.Type))
		w.Ints(t.Shape)
		w.U32(uint32(int32(t.Buffer)))
		w.U64(math.Float64bits(t.Scale))
	}
	w.U32(uint32(len(m.Buffers)))
	for _, b := range m.Buffers {
		w.Bytes(b)
	}
	w.U32(uint32(len(m.Ops)))
	for _, op := range m.Ops {
		w.U8(uint8(op.Code))
		w.U8(uint8(op.Activation))
		w.U8(op.Padding)
		w.U32(uint32(op.Stride))
		w.U32(uint32(op.K))
		w.Ints(op.Inputs)
		w.Ints(op.Outputs)
		w.Ints(op.NewShape)
		w.U64(math.Float64bits(op.CostScale))
	}
	w.Ints(m.Inputs)
	w.Ints(m.Outputs)
	return w.Buf
}

// marshalLen is the length of Marshal's result: each record's fixed
// fields (see the minimum records above) plus its names, bytes and
// eight bytes an int.
func (m *Model) marshalLen() int {
	ints := func(vals []int) int { return 8 * len(vals) }
	n := len(modelMagic) + 3*4 + 4 + ints(m.Inputs) + 4 + ints(m.Outputs)
	for _, t := range m.Tensors {
		n += minTensorRecord + len(t.Name) + ints(t.Shape)
	}
	for _, b := range m.Buffers {
		n += minBufferRecord + len(b)
	}
	for _, op := range m.Ops {
		n += minOpRecord + ints(op.Inputs) + ints(op.Outputs) + ints(op.NewShape)
	}
	return n
}

// Unmarshal parses a serialized model. The weight buffers are not
// copied: each is a sub-slice of data, which the model keeps, so the
// caller hands data over and must not modify it afterwards.
func Unmarshal(data []byte) (*Model, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(modelMagic))) != modelMagic {
		return nil, fmt.Errorf("tflite: bad model magic")
	}
	m := &Model{}
	m.Tensors = make([]TensorSpec, r.Count(minTensorRecord))
	for i := range m.Tensors {
		t := &m.Tensors[i]
		t.Name = r.Str()
		t.Type = TensorType(r.U8())
		t.Shape = r.Ints()
		t.Buffer = int(int32(r.U32()))
		t.Scale = math.Float64frombits(r.U64())
	}
	m.Buffers = make([][]byte, r.Count(minBufferRecord))
	for i := range m.Buffers {
		m.Buffers[i] = r.Bytes()
	}
	m.Ops = make([]OpSpec, r.Count(minOpRecord))
	for i := range m.Ops {
		op := &m.Ops[i]
		op.Code = OpCode(r.U8())
		op.Activation = Activation(r.U8())
		op.Padding = r.U8()
		op.Stride = int(r.U32())
		op.K = int(r.U32())
		op.Inputs = r.Ints()
		op.Outputs = r.Ints()
		op.NewShape = r.Ints()
		op.CostScale = math.Float64frombits(r.U64())
	}
	m.Inputs = r.Ints()
	m.Outputs = r.Ints()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tflite: model: %w", err)
	}
	return m, m.validate()
}

// validate performs structural sanity checks so a corrupted model fails
// loading rather than execution.
func (m *Model) validate() error {
	for i, t := range m.Tensors {
		if t.Type != TypeFloat32 && t.Type != TypeInt8 {
			return fmt.Errorf("tflite: tensor %d bad type %d", i, t.Type)
		}
		if t.Buffer >= len(m.Buffers) {
			return fmt.Errorf("tflite: tensor %d references buffer %d of %d", i, t.Buffer, len(m.Buffers))
		}
	}
	checkIdx := func(kind string, idxs []int) error {
		for _, ix := range idxs {
			if ix < 0 || ix >= len(m.Tensors) {
				return fmt.Errorf("tflite: %s tensor index %d out of range", kind, ix)
			}
		}
		return nil
	}
	for i, op := range m.Ops {
		minIn, maxIn, ok := op.Code.arity()
		if !ok {
			return fmt.Errorf("tflite: op %d has unknown opcode %d", i, op.Code)
		}
		if len(op.Inputs) < minIn || len(op.Inputs) > maxIn || len(op.Outputs) != 1 {
			return fmt.Errorf("tflite: op %d (%s) has %d inputs and %d outputs", i, op.Code, len(op.Inputs), len(op.Outputs))
		}
		if err := checkIdx("op input", op.Inputs); err != nil {
			return err
		}
		if err := checkIdx("op output", op.Outputs); err != nil {
			return err
		}
	}
	if err := checkIdx("model input", m.Inputs); err != nil {
		return err
	}
	if err := checkIdx("model output", m.Outputs); err != nil {
		return err
	}
	// An output is computed by an op or fed as an input; anything else
	// would hand the caller a weight, or nothing.
	fed := make([]bool, len(m.Tensors))
	for _, op := range m.Ops {
		fed[op.Outputs[0]] = true
	}
	for _, ix := range m.Inputs {
		fed[ix] = true
	}
	for i, ix := range m.Outputs {
		if !fed[ix] {
			return fmt.Errorf("tflite: model output %d (tensor %d) is written by no op and fed by no input", i, ix)
		}
	}
	return nil
}
