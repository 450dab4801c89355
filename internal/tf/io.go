package tf

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/securetf/securetf/internal/wire"
)

// Binary serialization of graphs, tensors and checkpoints. The formats
// stand in for TensorFlow's protobuf GraphDef and checkpoint files: what
// matters for the reproduction is that frozen graphs round-trip between
// the Python-like building API and the C++-like execution engine, and
// that the byte sizes land on disk where the shields and EPC see them.

// Format magics.
const (
	graphMagic      = "STFG1"
	checkpointMagic = "STFC1"
	tensorMagic     = "STFT1"
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

// The fewest bytes one record can occupy, which is what bounds a count
// read from the input (wire.Reader.Count): a node is two empty strings,
// a dtype and three zero counts; an attribute an empty key, a kind and a
// bool; a checkpoint entry an empty name and a rank-0 tensor header.
const (
	minNodeRecord = 4 + 4 + 1 + 4 + 4 + 4
	minAttrRecord = 4 + 1 + 1
	minVarRecord  = 4 + 1 + 4 + 4
)

// maxRank bounds the rank of a decoded shape.
const maxRank = 16

// tensorLen is the size of a tensor's inner encoding: dtype, rank,
// dimensions, element count and four bytes an element.
func tensorLen(t *Tensor) int {
	return 1 + 4 + 8*len(t.shape) + 4 + 4*t.NumElements()
}

// encodeTensorInto writes a tensor without magic (inner encoding). The
// elements go into a slice sized from the shape in one pass (putWords),
// not appended word by word.
func encodeTensorInto(w *wire.Writer, t *Tensor) {
	w.Buf = slices.Grow(w.Buf, tensorLen(t))
	w.U8(uint8(t.dtype))
	w.Ints(t.shape)
	n := t.NumElements()
	w.U32(uint32(n))
	off := len(w.Buf)
	w.Buf = w.Buf[:off+4*n]
	t.putWords(w.Buf[off:])
}

// The element codec: four little-endian bytes an element, whatever the
// target's byte order. On a little-endian target an element's bytes in
// memory are its encoding, so putWords and setWords are one copy each
// (codec_le.go); everywhere else they are the loops below, which are
// also the oracle the copy is tested against.

// putWordsLoop encodes t's elements into words, four bytes each,
// len(words) being four times the element count.
func (t *Tensor) putWordsLoop(words []byte) {
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

// tensorHeader reads a tensor's inner encoding up to its elements and
// returns them undecoded: four bytes each, as many as the shape says.
func tensorHeader(r *wire.Reader) (dtype DType, shape Shape, words []byte, err error) {
	dtype, shape = DType(r.U8()), Shape(r.Ints())
	elems := 1
	for _, d := range shape {
		// Shape.NumElements would wrap: [1<<33, 1<<31] multiplies to 0.
		if d < 0 || (d > 0 && elems > math.MaxInt/d) {
			return 0, nil, nil, fmt.Errorf("tf: tensor shape %v is negative or overflows", shape)
		}
		elems *= d
	}
	n := r.Count(4)
	words = r.Next(4 * n)
	if err := r.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("tf: tensor: %w", err)
	}
	if dtype != Float32 && dtype != Int32 {
		return 0, nil, nil, fmt.Errorf("tf: bad dtype %d", dtype)
	}
	if len(shape) > maxRank {
		return 0, nil, nil, fmt.Errorf("tf: rank %d too large", len(shape))
	}
	if elems != n {
		return 0, nil, nil, fmt.Errorf("tf: tensor shape %v vs %d elements", shape, n)
	}
	return dtype, shape, words, nil
}

// setWordsLoop decodes t's elements from their encoding, four bytes
// each, len(words) being four times the element count.
func (t *Tensor) setWordsLoop(words []byte) {
	for i := range t.i32 {
		t.i32[i] = int32(binary.LittleEndian.Uint32(words[4*i:]))
	}
	for i := range t.f32 {
		t.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(words[4*i:]))
	}
}

func decodeTensorFrom(r *wire.Reader) (*Tensor, error) {
	dtype, shape, words, err := tensorHeader(r)
	if err != nil {
		return nil, err
	}
	t := NewTensor(dtype, shape)
	t.setWords(words)
	return t, nil
}

// EncodedTensorLen is the length of EncodeTensor's result.
func EncodedTensorLen(t *Tensor) int { return len(tensorMagic) + tensorLen(t) }

// AppendTensor appends a tensor's EncodeTensor serialization to dst, for
// a caller that has sized dst for its whole frame.
func AppendTensor(dst []byte, t *Tensor) []byte {
	w := wire.Writer{Buf: append(dst, tensorMagic...)}
	encodeTensorInto(&w, t)
	return w.Buf
}

// EncodeTensor serializes a single tensor (used by the distributed
// protocol and checkpoints).
func EncodeTensor(t *Tensor) []byte {
	return AppendTensor(make([]byte, 0, EncodedTensorLen(t)), t)
}

// DecodeTensor reverses EncodeTensor. Bytes after the tensor are
// ignored.
func DecodeTensor(data []byte) (*Tensor, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(tensorMagic))) != tensorMagic {
		return nil, fmt.Errorf("tf: bad tensor magic")
	}
	return decodeTensorFrom(r)
}

// encodedElements checks that data is the EncodeTensor serialization of
// a tensor of like's dtype and shape, and returns its undecoded
// elements.
func encodedElements(like *Tensor, data []byte) ([]byte, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(tensorMagic))) != tensorMagic {
		return nil, fmt.Errorf("tf: bad tensor magic")
	}
	dtype, shape, words, err := tensorHeader(r)
	if err != nil {
		return nil, err
	}
	if dtype != like.dtype || !shape.Equal(like.shape) {
		return nil, fmt.Errorf("tf: encoded tensor is %v %v, want %v %v", dtype, shape, like.dtype, like.shape)
	}
	return words, nil
}

// CheckEncodedTensor reports whether DecodeTensorInto(dst, data) would
// succeed, without writing anything: a decoder that fills several
// tensors from one frame checks them all before it fills the first.
func CheckEncodedTensor(dst *Tensor, data []byte) error {
	_, err := encodedElements(dst, data)
	return err
}

// DecodeTensorInto is DecodeTensor into storage that already exists:
// data must encode a tensor of dst's dtype and shape, and its elements
// overwrite dst's. The encoding is checked in full before the first
// element is written, so an error leaves dst as it was.
func DecodeTensorInto(dst *Tensor, data []byte) error {
	words, err := encodedElements(dst, data)
	if err != nil {
		return err
	}
	dst.setWords(words)
	return nil
}

// DecodeElementsInto overwrites dst's elements from their encoding alone
// (four little-endian bytes an element, as EncodeTensor writes them
// after the header): one copy on a little-endian target. words must hold
// exactly dst's elements.
func DecodeElementsInto(dst *Tensor, words []byte) error {
	if len(words) != 4*dst.NumElements() {
		return fmt.Errorf("tf: %d bytes do not encode %d elements", len(words), dst.NumElements())
	}
	dst.setWords(words)
	return nil
}

// MarshalGraph serializes the graph, including constant values and
// variable initials — a frozen graph is therefore self-contained.
func MarshalGraph(g *Graph) ([]byte, error) {
	w := wire.Writer{Buf: []byte(graphMagic)}
	w.U32(uint32(len(g.nodes)))
	for _, n := range g.nodes {
		w.Str(n.name)
		w.Str(n.op)
		w.U8(uint8(n.dtype))
		w.Ints(n.shape)
		w.U32(uint32(len(n.inputs)))
		for _, in := range n.inputs {
			w.Str(in.name)
		}
		keys := make([]string, 0, len(n.attrs))
		for k := range n.attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.Str(k)
			switch v := n.attrs[k].(type) {
			case int64:
				w.U8(attrKindInt)
				w.U64(uint64(v))
			case float64:
				w.U8(attrKindFloat)
				w.U64(math.Float64bits(v))
			case string:
				w.U8(attrKindString)
				w.Str(v)
			case bool:
				w.U8(attrKindBool)
				w.Bool(v)
			case []int64:
				w.U8(attrKindInts)
				w.U32(uint32(len(v)))
				for _, x := range v {
					w.U64(uint64(x))
				}
			case *Tensor:
				w.U8(attrKindTensor)
				encodeTensorInto(&w, v)
			default:
				return nil, fmt.Errorf("tf: unserializable attr %q (%T) on %q", k, v, n.name)
			}
		}
	}
	return w.Buf, nil
}

// UnmarshalGraph reverses MarshalGraph. The input is untrusted, and a
// graph that loads is in the form MarshalGraph writes — attribute keys
// ascending, booleans 0 or 1, nothing after the last node — so it
// re-marshals to the bytes it was read from. Every node's op is known,
// takes its inputs, and declares the dtype and shape its rule derives
// from theirs, so a loaded graph's declared shapes are true.
func UnmarshalGraph(data []byte) (*Graph, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(graphMagic))) != graphMagic {
		return nil, fmt.Errorf("tf: bad graph magic")
	}
	g := NewGraph()
	for i, count := 0, r.Count(minNodeRecord); i < count; i++ {
		name, op, dtype, shape := r.Str(), r.Str(), DType(r.U8()), Shape(r.Ints())
		inputs := make([]*Node, r.Count(4))
		for j := range inputs {
			inName := r.Str()
			if inputs[j] = g.Node(inName); inputs[j] == nil && r.Err() == nil {
				return nil, fmt.Errorf("tf: node %q references undefined input %q", name, inName)
			}
		}
		attrs, prev := Attrs{}, ""
		for j, nattrs := 0, r.Count(minAttrRecord); j < nattrs; j++ {
			key, kind := r.Str(), r.U8()
			if r.Err() != nil {
				break
			}
			if j > 0 && key <= prev {
				return nil, fmt.Errorf("tf: node %q attr %q follows %q", name, key, prev)
			}
			prev = key
			switch kind {
			case attrKindInt:
				attrs[key] = int64(r.U64())
			case attrKindFloat:
				attrs[key] = math.Float64frombits(r.U64())
			case attrKindString:
				attrs[key] = r.Str()
			case attrKindBool:
				b := r.U8()
				if b > 1 {
					return nil, fmt.Errorf("tf: node %q attr %q is the boolean %d", name, key, b)
				}
				attrs[key] = b == 1
			case attrKindInts:
				vals := make([]int64, r.Count(8))
				for k := range vals {
					vals[k] = int64(r.U64())
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
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("tf: graph: %w", err)
		}
		if len(shape) > maxRank {
			return nil, fmt.Errorf("tf: node %q rank %d too large", name, len(shape))
		}
		if name == "" || g.Node(name) != nil {
			return nil, fmt.Errorf("tf: empty or duplicate node name %q", name)
		}
		n := &Node{name: name, op: op, inputs: inputs, attrs: attrs, shape: shape, dtype: dtype}
		derived, ddtype, err := n.derive()
		if err == nil && (ddtype != dtype || !derived.Equal(shape)) {
			err = fmt.Errorf("declared %v %v, its rule derives %v %v", dtype, shape, ddtype, derived)
		}
		if err != nil {
			return nil, fmt.Errorf("tf: node %q (%s): %w", name, op, err)
		}
		g.add(n)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tf: graph: %w", err)
	}
	return g, nil
}

// SaveCheckpoint serializes the session's variable values.
func SaveCheckpoint(s *Session) []byte {
	return appendCheckpoint(nil, s.VariableNames(), s.vars)
}

// EncodeVarCheckpoint serializes a variable map in the SaveCheckpoint
// format (STFC1), names sorted — the shape a parameter-server shard
// snapshots, so shard checkpoints and session checkpoints share one
// encoding and RestoreCheckpoint loads either.
func EncodeVarCheckpoint(vars map[string]*Tensor) []byte {
	return AppendVarCheckpoint(nil, vars)
}

// AppendVarCheckpoint appends EncodeVarCheckpoint's encoding of vars to
// dst, growing it at most once, so a record that carries the checkpoint
// after a header of its own is one buffer.
func AppendVarCheckpoint(dst []byte, vars map[string]*Tensor) []byte {
	// A shard's few names sort on the stack: into a dst with room, a
	// snapshot of up to 16 variables allocates nothing.
	var stack [16]string
	names := stack[:0]
	for name := range vars {
		names = append(names, name)
	}
	slices.Sort(names)
	return appendCheckpoint(dst, names, vars)
}

// appendCheckpoint appends the named variables, in the order given, to
// dst, grown once to their exact size.
func appendCheckpoint(dst []byte, names []string, vars map[string]*Tensor) []byte {
	size := len(checkpointMagic) + 4
	for _, name := range names {
		size += 4 + len(name) + tensorLen(vars[name])
	}
	w := wire.Writer{Buf: append(slices.Grow(dst, size), checkpointMagic...)}
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.Str(name)
		encodeTensorInto(&w, vars[name])
	}
	return w.Buf
}

// DecodeVarCheckpoint parses a SaveCheckpoint/EncodeVarCheckpoint blob
// into a variable map. The input is untrusted: a truncated or
// bit-flipped snapshot errors instead of panicking or over-allocating.
func DecodeVarCheckpoint(data []byte) (map[string]*Tensor, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(checkpointMagic))) != checkpointMagic {
		return nil, fmt.Errorf("tf: bad checkpoint magic")
	}
	count := r.Count(minVarRecord)
	vars := make(map[string]*Tensor, count)
	for i := 0; i < count; i++ {
		name := r.Str()
		t, err := decodeTensorFrom(r)
		if err != nil {
			return nil, err
		}
		if _, ok := vars[name]; ok {
			return nil, fmt.Errorf("tf: duplicate checkpoint variable %q", name)
		}
		vars[name] = t
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tf: checkpoint: %w", err)
	}
	return vars, nil
}

// RestoreCheckpoint loads variable values saved by SaveCheckpoint into
// the session. Every checkpointed variable must exist with a matching
// shape.
func RestoreCheckpoint(s *Session, data []byte) error {
	vars, err := DecodeVarCheckpoint(data)
	if err != nil {
		return err
	}
	for name, t := range vars {
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
			newNode = out.Const(n.name, val)
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
			newNode = out.add(&Node{name: out.uniqueName(n.name), op: n.op, inputs: inputs, attrs: attrs, shape: n.shape, dtype: n.dtype})
		}
		if newNode.name != n.name {
			return nil, fmt.Errorf("tf: freeze: name collision for %q", n.name)
		}
		mapping[n] = newNode
	}
	return out, nil
}
