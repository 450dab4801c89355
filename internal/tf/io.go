package tf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// Binary serialization of graphs, tensors and checkpoints. The formats
// stand in for TensorFlow's protobuf GraphDef and checkpoint files: what
// matters for the reproduction is that frozen graphs round-trip between
// the Python-like building API and the C++-like execution engine, and
// that the byte sizes land on disk where the shields and EPC see them.

// Format magics.
var (
	graphMagic      = []byte("STFG1")
	checkpointMagic = []byte("STFC1")
	tensorMagic     = []byte("STFT1")
)

// Attribute kind tags.
const (
	attrKindInt    = 1
	attrKindFloat  = 2
	attrKindString = 3
	attrKindBool   = 4
	attrKindInts   = 5
	attrKindTensor = 6
)

// writer appends to buf.
type writer struct {
	buf []byte
}

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	data []byte
	off  int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.data) {
		return io.ErrUnexpectedEOF
	}
	return nil
}
func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}
func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}
func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}
func (r *reader) remaining() int { return len(r.data) - r.off }
func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// tensorLen is the size of a tensor's inner encoding: dtype, rank,
// dimensions, element count and four bytes an element.
func tensorLen(t *Tensor) int {
	return 1 + 4 + 8*len(t.shape) + 4 + 4*t.NumElements()
}

// encodeTensorInto writes a tensor without magic (inner encoding). The
// elements are converted in one pass over a slice sized from the shape,
// not appended word by word.
func encodeTensorInto(w *writer, t *Tensor) {
	w.buf = slices.Grow(w.buf, tensorLen(t))
	w.u8(uint8(t.dtype))
	w.u32(uint32(len(t.shape)))
	for _, d := range t.shape {
		w.u64(uint64(int64(d)))
	}
	n := t.NumElements()
	w.u32(uint32(n))
	off := len(w.buf)
	w.buf = w.buf[:off+4*n]
	words := w.buf[off:]
	switch t.dtype {
	case Int32:
		for i, v := range t.i32 {
			binary.LittleEndian.PutUint32(words[4*i:], uint32(v))
		}
	default:
		for i, v := range t.f32 {
			binary.LittleEndian.PutUint32(words[4*i:], math.Float32bits(v))
		}
	}
}

func decodeTensorFrom(r *reader) (*Tensor, error) {
	dt, err := r.u8()
	if err != nil {
		return nil, err
	}
	dtype := DType(dt)
	if dtype != Float32 && dtype != Int32 {
		return nil, fmt.Errorf("tf: bad dtype %d", dt)
	}
	rank, err := r.u32()
	if err != nil {
		return nil, err
	}
	if rank > 16 {
		return nil, fmt.Errorf("tf: rank %d too large", rank)
	}
	shape := make(Shape, rank)
	for i := range shape {
		d, err := r.u64()
		if err != nil {
			return nil, err
		}
		shape[i] = int(int64(d))
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if shape.NumElements() != int(n) {
		return nil, fmt.Errorf("tf: tensor shape %v vs %d elements", shape, n)
	}
	// Every element is four bytes on the wire; a count beyond the
	// remaining payload is corruption, not an allocation size to honour.
	if int64(n)*4 > int64(r.remaining()) {
		return nil, fmt.Errorf("tf: tensor of %d elements exceeds remaining payload", n)
	}
	words := r.data[r.off : r.off+4*int(n)]
	r.off += len(words)
	t := NewTensor(dtype, shape)
	switch dtype {
	case Int32:
		for i := range t.i32 {
			t.i32[i] = int32(binary.LittleEndian.Uint32(words[4*i:]))
		}
	default:
		for i := range t.f32 {
			t.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(words[4*i:]))
		}
	}
	return t, nil
}

// EncodedTensorLen is the length of EncodeTensor's result.
func EncodedTensorLen(t *Tensor) int { return len(tensorMagic) + tensorLen(t) }

// AppendTensor appends a tensor's EncodeTensor serialization to dst, for
// a caller that has sized dst for its whole frame.
func AppendTensor(dst []byte, t *Tensor) []byte {
	w := writer{buf: append(dst, tensorMagic...)}
	encodeTensorInto(&w, t)
	return w.buf
}

// EncodeTensor serializes a single tensor (used by the distributed
// protocol and checkpoints).
func EncodeTensor(t *Tensor) []byte {
	return AppendTensor(make([]byte, 0, EncodedTensorLen(t)), t)
}

// DecodeTensor reverses EncodeTensor.
func DecodeTensor(data []byte) (*Tensor, error) {
	if len(data) < len(tensorMagic) || !bytes.Equal(data[:len(tensorMagic)], tensorMagic) {
		return nil, fmt.Errorf("tf: bad tensor magic")
	}
	r := &reader{data: data, off: len(tensorMagic)}
	return decodeTensorFrom(r)
}

// MarshalGraph serializes the graph, including constant values and
// variable initials — a frozen graph is therefore self-contained.
func MarshalGraph(g *Graph) ([]byte, error) {
	var w writer
	w.buf = append(w.buf, graphMagic...)
	w.u32(uint32(len(g.nodes)))
	for _, n := range g.nodes {
		w.str(n.name)
		w.str(n.op)
		w.u8(uint8(n.dtype))
		w.u32(uint32(len(n.shape)))
		for _, d := range n.shape {
			w.u64(uint64(int64(d)))
		}
		w.u32(uint32(len(n.inputs)))
		for _, in := range n.inputs {
			w.str(in.name)
		}
		keys := make([]string, 0, len(n.attrs))
		for k := range n.attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.u32(uint32(len(keys)))
		for _, k := range keys {
			w.str(k)
			switch v := n.attrs[k].(type) {
			case int64:
				w.u8(attrKindInt)
				w.u64(uint64(v))
			case float64:
				w.u8(attrKindFloat)
				w.u64(math.Float64bits(v))
			case string:
				w.u8(attrKindString)
				w.str(v)
			case bool:
				w.u8(attrKindBool)
				if v {
					w.u8(1)
				} else {
					w.u8(0)
				}
			case []int64:
				w.u8(attrKindInts)
				w.u32(uint32(len(v)))
				for _, x := range v {
					w.u64(uint64(x))
				}
			case *Tensor:
				w.u8(attrKindTensor)
				encodeTensorInto(&w, v)
			default:
				return nil, fmt.Errorf("tf: unserializable attr %q (%T) on %q", k, v, n.name)
			}
		}
	}
	return w.buf, nil
}

// UnmarshalGraph reverses MarshalGraph.
func UnmarshalGraph(data []byte) (*Graph, error) {
	if len(data) < len(graphMagic) || !bytes.Equal(data[:len(graphMagic)], graphMagic) {
		return nil, fmt.Errorf("tf: bad graph magic")
	}
	r := &reader{data: data, off: len(graphMagic)}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	g := NewGraph()
	for i := uint32(0); i < count; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		op, err := r.str()
		if err != nil {
			return nil, err
		}
		dt, err := r.u8()
		if err != nil {
			return nil, err
		}
		rank, err := r.u32()
		if err != nil {
			return nil, err
		}
		if rank > 16 {
			return nil, fmt.Errorf("tf: node %q rank %d too large", name, rank)
		}
		shape := make(Shape, rank)
		for j := range shape {
			d, err := r.u64()
			if err != nil {
				return nil, err
			}
			shape[j] = int(int64(d))
		}
		nin, err := r.u32()
		if err != nil {
			return nil, err
		}
		inputs := make([]*Node, nin)
		for j := range inputs {
			inName, err := r.str()
			if err != nil {
				return nil, err
			}
			in := g.Node(inName)
			if in == nil {
				return nil, fmt.Errorf("tf: node %q references undefined input %q", name, inName)
			}
			inputs[j] = in
		}
		nattrs, err := r.u32()
		if err != nil {
			return nil, err
		}
		attrs := Attrs{}
		for j := uint32(0); j < nattrs; j++ {
			key, err := r.str()
			if err != nil {
				return nil, err
			}
			kind, err := r.u8()
			if err != nil {
				return nil, err
			}
			switch kind {
			case attrKindInt:
				v, err := r.u64()
				if err != nil {
					return nil, err
				}
				attrs[key] = int64(v)
			case attrKindFloat:
				v, err := r.u64()
				if err != nil {
					return nil, err
				}
				attrs[key] = math.Float64frombits(v)
			case attrKindString:
				v, err := r.str()
				if err != nil {
					return nil, err
				}
				attrs[key] = v
			case attrKindBool:
				v, err := r.u8()
				if err != nil {
					return nil, err
				}
				attrs[key] = v != 0
			case attrKindInts:
				count, err := r.u32()
				if err != nil {
					return nil, err
				}
				vals := make([]int64, count)
				for k := range vals {
					v, err := r.u64()
					if err != nil {
						return nil, err
					}
					vals[k] = int64(v)
				}
				attrs[key] = vals
			case attrKindTensor:
				t, err := decodeTensorFrom(r)
				if err != nil {
					return nil, err
				}
				attrs[key] = t
			default:
				return nil, fmt.Errorf("tf: node %q attr %q has unknown kind %d", name, key, kind)
			}
		}
		if existing := g.Node(name); existing != nil {
			return nil, fmt.Errorf("tf: duplicate node %q", name)
		}
		g.addNode(name, op, inputs, attrs, shape, DType(dt))
	}
	return g, nil
}

// SaveCheckpoint serializes the session's variable values.
func SaveCheckpoint(s *Session) []byte {
	return encodeCheckpoint(s.VariableNames(), s.vars)
}

// EncodeVarCheckpoint serializes a variable map in the SaveCheckpoint
// format (STFC1), names sorted — the shape a parameter-server shard
// snapshots, so shard checkpoints and session checkpoints share one
// encoding and RestoreCheckpoint loads either.
func EncodeVarCheckpoint(vars map[string]*Tensor) []byte {
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	return encodeCheckpoint(names, vars)
}

// encodeCheckpoint writes the named variables, in the order given, into
// a buffer sized once.
func encodeCheckpoint(names []string, vars map[string]*Tensor) []byte {
	size := len(checkpointMagic) + 4
	for _, name := range names {
		size += 4 + len(name) + tensorLen(vars[name])
	}
	w := writer{buf: make([]byte, 0, size)}
	w.buf = append(w.buf, checkpointMagic...)
	w.u32(uint32(len(names)))
	for _, name := range names {
		w.str(name)
		encodeTensorInto(&w, vars[name])
	}
	return w.buf
}

// DecodeVarCheckpoint parses a SaveCheckpoint/EncodeVarCheckpoint blob
// into a variable map. The input is untrusted: counts and element
// totals are validated against the remaining payload before any
// allocation, so a truncated or bit-flipped snapshot errors instead of
// panicking or over-allocating.
func DecodeVarCheckpoint(data []byte) (map[string]*Tensor, error) {
	if len(data) < len(checkpointMagic) || !bytes.Equal(data[:len(checkpointMagic)], checkpointMagic) {
		return nil, fmt.Errorf("tf: bad checkpoint magic")
	}
	r := &reader{data: data, off: len(checkpointMagic)}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each entry takes at least a name length prefix plus the minimal
	// tensor header (dtype, rank, element count); a larger count is
	// corruption, not an allocation hint to honour.
	if int64(count) > int64(r.remaining())/13 {
		return nil, fmt.Errorf("tf: checkpoint variable count %d exceeds remaining payload", count)
	}
	vars := make(map[string]*Tensor, count)
	for i := uint32(0); i < count; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		if _, ok := vars[name]; ok {
			return nil, fmt.Errorf("tf: duplicate checkpoint variable %q", name)
		}
		t, err := decodeTensorFrom(r)
		if err != nil {
			return nil, err
		}
		vars[name] = t
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("tf: %d trailing bytes after checkpoint", r.remaining())
	}
	return vars, nil
}

// RestoreCheckpoint loads variable values saved by SaveCheckpoint into
// the session. Every checkpointed variable must exist with a matching
// shape.
func RestoreCheckpoint(s *Session, data []byte) error {
	if len(data) < len(checkpointMagic) || !bytes.Equal(data[:len(checkpointMagic)], checkpointMagic) {
		return fmt.Errorf("tf: bad checkpoint magic")
	}
	r := &reader{data: data, off: len(checkpointMagic)}
	count, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < count; i++ {
		name, err := r.str()
		if err != nil {
			return err
		}
		t, err := decodeTensorFrom(r)
		if err != nil {
			return err
		}
		if err := s.SetVariable(name, t); err != nil {
			return fmt.Errorf("tf: restoring checkpoint: %w", err)
		}
	}
	return nil
}

// Freeze exports the subgraph reachable from fetches with every variable
// replaced by a constant holding its current session value — TF1's
// freeze_graph step that produces the models secureTF deploys for
// inference.
func Freeze(s *Session, fetches []*Node) (*Graph, error) {
	order, err := topoSort(fetches)
	if err != nil {
		return nil, err
	}
	out := NewGraph()
	mapping := make(map[*Node]*Node, len(order))
	for _, n := range order {
		var newNode *Node
		switch n.op {
		case OpVariable:
			val, ok := s.vars[n.name]
			if !ok {
				return nil, fmt.Errorf("tf: freeze: variable %q has no value", n.name)
			}
			newNode = out.addNode(n.name, OpConst, nil, Attrs{"value": val.Clone()}, val.Shape(), val.DType())
		default:
			inputs := make([]*Node, len(n.inputs))
			for i, in := range n.inputs {
				m, ok := mapping[in]
				if !ok {
					return nil, fmt.Errorf("tf: freeze: input %q not mapped", in.name)
				}
				inputs[i] = m
			}
			attrs := Attrs{}
			for k, v := range n.attrs {
				if t, ok := v.(*Tensor); ok {
					attrs[k] = t.Clone()
				} else {
					attrs[k] = v
				}
			}
			newNode = out.addNode(n.name, n.op, inputs, attrs, n.shape, n.dtype)
		}
		if newNode.name != n.name {
			return nil, fmt.Errorf("tf: freeze: name collision for %q", n.name)
		}
		mapping[n] = newNode
	}
	return out, nil
}
