package tf

import (
	"fmt"
	"slices"
)

// runPlan is how a Run of one fetch list goes, worked out at its first
// Run and kept for the next ones: the nodes in the order they run, where
// each one's inputs are, and where in the session's two slabs each
// buffer the Run draws lies.
//
// The buffers (spans) are fixed by the graph. A kernel's output is a
// span of its own, or its input's where it takes that input's storage: a
// Reshape is a view of it, and BiasAdd, Relu and ReluGrad compute in
// place over an input whose last reader they are. A kernel's scratch
// (opMemory) is a span for that node alone, or, for a forward cache, up
// to the last gradient node that reads it. A BiasAdd that is not
// fetched and that a Relu alone reads is folded into that Relu: it has
// no span and no kernel, and the Relu's kernel reads the BiasAdd's
// inputs and computes relu(x+bias) in one pass, in place over x where it
// is x's last reader. A span is live from the node
// that first draws it to its last reader, where a view or a pass-through
// (Dropout at inference, DropoutGrad without its mask) of it reads for
// as long as it is read, since it may be the same storage; fetches stay
// to the Run's end.
//
// Only the spans' sizes follow the Run's shapes. Before each Run the
// plan derives every node's shape from its rule, sizes the spans, and
// when a size moved lays them out again (Layout, which the Lite
// interpreter's Invoke shares).
//
// The plan also holds what a Run fills in as it goes, per node, which
// reset clears when the Run ends.
type runPlan struct {
	fetches []*Node
	order   []*Node
	index   map[*Node]int // position in order
	inputs  [][]int       // per position: its inputs' positions
	forward []int         // per position: the forward node whose cache it reads, or -1
	kernels []kernelFunc  // per position: its kernel; nil for a source and a folded BiasAdd
	reads   [][]int       // per position: the positions its kernel reads, a folded BiasAdd's inputs for its Relu
	fetchAt []int         // per fetch: its position
	consts  int64         // bytes of the Const values the Run reads

	Layout
	outSpan []int          // per position: the span its output is drawn from or views, or -1
	shares  []int          // per position: the input whose span its output takes, or -1
	scratch [][]scratchUse // per position: its kernel's scratch, in the order it draws it

	shapes []Shape   // per position: its shape this Run
	values []*Tensor // per position: its value this Run
	slots  []Tensor  // per position: the header its kernel's output is drawn into
	caches []cache   // per position: the forward cache its kernel left this Run
}

// scratchUse is one scratch draw of a node's kernel and the span it
// draws.
type scratchUse struct {
	scratchDraw
	span int
}

// memRule is what an op's kernel draws beyond a fresh output of its
// own. Ops without an entry in opMemory draw just that.
type memRule struct {
	view     bool  // the output is input 0's storage (Reshape)
	passes   bool  // the output may be input 0's storage (Dropout, DropoutGrad)
	variable bool  // the output is the variable it updates (the applies)
	inPlace  []int // inputs whose span the output may take, where it is their last reader
	scratch  []scratchDraw
}

// scratchDraw is a buffer a kernel draws beside its output: a transpose
// or a recompute for the node alone, or a forward cache for the gradient
// nodes that read it.
type scratchDraw struct {
	i32   bool
	cache bool
	size  func(n *Node, in []Shape, out Shape) int // elements; 0 when not drawn
}

// opMemory declares every draw a kernel makes but a fresh output: the
// six scratch sites (MatMul's two transposes, MaxPool's argmax, the
// softmax cross-entropy's probabilities, Dropout's mask and the
// cross-entropy gradient's recompute) and the ops whose output is not a
// span of their own. BiasAdd, Relu and ReluGrad write each element after
// reading that element alone (their kernels' dst may alias), so they may
// compute in place; so may a Relu with its BiasAdd folded in, over its
// first read, the BiasAdd's x.
var opMemory = map[string]memRule{
	OpReshape:       {view: true},
	OpDropout:       {passes: true, scratch: []scratchDraw{{cache: true, size: elementsOf(0)}}},
	OpDropoutGrad:   {passes: true},
	OpApplySGD:      {variable: true},
	OpApplyMomentum: {variable: true},
	OpApplyAdam:     {variable: true},

	OpBiasAdd:  {inPlace: []int{0}},
	OpRelu:     {inPlace: []int{0}},
	OpReluGrad: {inPlace: []int{0, 1}},

	OpMatMul:          {scratch: []scratchDraw{{size: transposed(0, "transpose_a")}, {size: transposed(1, "transpose_b")}}},
	OpMaxPool:         {scratch: []scratchDraw{{i32: true, cache: true, size: func(_ *Node, _ []Shape, out Shape) int { return out.NumElements() }}}},
	OpSoftmaxXent:     {scratch: []scratchDraw{{cache: true, size: elementsOf(0)}}},
	OpSoftmaxXentGrad: {scratch: []scratchDraw{{size: elementsOf(1)}}},
}

// elementsOf sizes a scratch buffer as input i.
func elementsOf(i int) func(*Node, []Shape, Shape) int {
	return func(_ *Node, in []Shape, _ Shape) int { return in[i].NumElements() }
}

// transposed sizes MatMul's transpose of input i, drawn when attribute
// key is set.
func transposed(i int, key string) func(*Node, []Shape, Shape) int {
	return func(n *Node, in []Shape, _ Shape) int {
		if attr(n, key, false) {
			return in[i].NumElements()
		}
		return 0
	}
}

func newPlan(fetches []*Node) (*runPlan, error) {
	order, err := topoSort(fetches)
	if err != nil {
		return nil, err
	}
	n := len(order)
	p := &runPlan{
		fetches: slices.Clone(fetches),
		order:   order,
		index:   make(map[*Node]int, n),
		inputs:  make([][]int, n),
		forward: make([]int, n),
		kernels: make([]kernelFunc, n),
		reads:   make([][]int, n),
		fetchAt: make([]int, len(fetches)),
		outSpan: make([]int, n),
		shares:  make([]int, n),
		scratch: make([][]scratchUse, n),
		shapes:  make([]Shape, n),
		values:  make([]*Tensor, n),
		slots:   make([]Tensor, n),
		caches:  make([]cache, n),
	}
	byName := make(map[string]int, n)
	for k, node := range order {
		p.index[node], byName[node.name] = k, k
	}
	last := make([]int, n)      // per position: the last position reading its storage
	cacheLast := make([]int, n) // per position: the last position reading its forward cache
	readers := make([]int, n)   // per position: the inputs wired to it
	for k, node := range order {
		last[k], cacheLast[k], p.forward[k] = k, k, -1
		p.inputs[k] = make([]int, len(node.inputs))
		p.kernels[k], p.reads[k] = opRules[node.op].kernel, p.inputs[k]
		for i, in := range node.inputs {
			j := p.index[in]
			p.inputs[k][i], last[j] = j, k
			readers[j]++
		}
		if j, ok := byName[attr(node, "forward", "")]; ok {
			p.forward[k], cacheLast[j] = j, max(cacheLast[j], k)
		}
		if node.op == OpConst {
			p.consts += attr[*Tensor](node, "value", nil).Bytes()
		}
	}
	for i, f := range fetches {
		p.fetchAt[i] = p.index[f]
		last[p.fetchAt[i]] = n
	}
	for k, node := range order { // a BiasAdd that only a Relu reads, and no fetch, folds into it
		if node.op != OpRelu {
			continue
		}
		if b := p.inputs[k][0]; order[b].op == OpBiasAdd && readers[b] == 1 && last[b] == k {
			p.kernels[k], p.kernels[b], p.reads[k] = kernelBiasRelu, nil, p.inputs[b]
			for _, i := range p.inputs[b] {
				last[i] = max(last[i], k)
			}
		}
	}
	for k := n - 1; k >= 0; k-- { // a view's readers come after it
		if m := opMemory[order[k].op]; m.view || m.passes {
			j := p.inputs[k][0]
			last[j] = max(last[j], last[k])
		}
	}
	for k, node := range order {
		p.outSpan[k], p.shares[k] = -1, -1
		m := opMemory[node.op]
		if p.kernels[k] == nil || m.variable {
			continue
		}
		if m.view {
			if s := p.outSpan[p.inputs[k][0]]; s >= 0 {
				p.take(k, p.inputs[k][0], last[k])
			}
			continue
		}
		if j, ok := p.inPlace(k, m.inPlace); ok {
			p.take(k, j, last[k])
		} else {
			p.outSpan[k] = p.Span(node.dtype == Int32, k, last[k])
		}
		for _, d := range m.scratch {
			end := k
			if d.cache {
				end = cacheLast[k]
			}
			p.scratch[k] = append(p.scratch[k], scratchUse{d, p.Span(d.i32, k, end)})
		}
	}
	return p, nil
}

// take makes the output of position k the span of position j, which
// it reads, live now to last at least.
func (p *runPlan) take(k, j, last int) {
	s := p.outSpan[j]
	p.outSpan[k], p.shares[k] = s, j
	p.spans[s].last = max(p.spans[s].last, last)
}

// inPlace returns the position of the first of the reads of position k
// indexed by inputs that it may compute in place over: a float32 span no
// node reads after k, which no other read of k reads from.
func (p *runPlan) inPlace(k int, inputs []int) (int, bool) {
	reads := p.reads[k]
	for _, i := range inputs {
		s := p.outSpan[reads[i]]
		if s < 0 || p.spans[s].i32 || p.spans[s].last != k {
			continue
		}
		alone := true
		for o, j := range reads {
			alone = alone && (o == i || p.outSpan[j] != s)
		}
		if alone {
			return reads[i], true
		}
	}
	return 0, false
}

// size sizes every span for this Run's shapes and lays the spans out
// again if a size moved.
func (p *runPlan) size(in []Shape) error {
	for s := range p.spans {
		p.spans[s].n = 0
	}
	for k, node := range p.order {
		if s := p.outSpan[k]; s >= 0 {
			n := p.shapes[k].NumElements()
			if n < 0 {
				return fmt.Errorf("tf: %q has shape %v this Run", node.name, p.shapes[k])
			}
			p.spans[s].n = max(p.spans[s].n, n)
		}
		if len(p.scratch[k]) == 0 {
			continue
		}
		in = in[:0]
		for _, j := range p.inputs[k] {
			in = append(in, p.shapes[j])
		}
		for _, u := range p.scratch[k] {
			p.spans[u.span].n = max(0, u.size(node, in, p.shapes[k]))
		}
	}
	p.Lay()
	return nil
}

// reset forgets what a Run left in p — values, the storage its headers
// point at, forward caches — so that a plan the session may not run
// again pins nothing the Run drew.
func (p *runPlan) reset() {
	clear(p.values)
	for i := range p.slots {
		p.slots[i].f32, p.slots[i].i32 = nil, nil
	}
	clear(p.caches)
}
