package tf

import (
	"cmp"
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
// to the last gradient node that reads it. A span is live from the node
// that first draws it to its last reader, where a view or a pass-through
// (Dropout at inference, DropoutGrad without its mask) of it reads for
// as long as it is read, since it may be the same storage; fetches stay
// to the Run's end.
//
// Only the spans' sizes follow the Run's shapes. Before each Run the
// plan derives every node's shape from its rule, sizes the spans, and
// when a size moved lays them out again (lay), greedily, each span in
// the tightest gap among the spans live beside it, as TFLite's arena
// planner does (Pisarchyk and Lee, "Efficient Memory Management for Deep
// Neural Net Inference", 2020).
//
// The plan also holds what a Run fills in as it goes, per node, which
// reset clears when the Run ends.
type runPlan struct {
	fetches []*Node
	order   []*Node
	index   map[*Node]int // position in order
	inputs  [][]int       // per position: its inputs' positions
	forward []int         // per position: the forward node whose cache it reads, or -1
	fetchAt []int         // per fetch: its position
	consts  int64         // bytes of the Const values the Run reads

	spans   []span
	outSpan []int          // per position: the span its output is drawn from or views, or -1
	shares  []int          // per position: the input whose span its output takes, or -1
	scratch [][]scratchUse // per position: its kernel's scratch, in the order it draws it
	f32Len  int            // elements of the float32 slab the layout needs
	i32Len  int            // and of the int32 slab

	shapes []Shape   // per position: its shape this Run
	values []*Tensor // per position: its value this Run
	slots  []Tensor  // per position: the header its kernel's output is drawn into
	caches []cache   // per position: the forward cache its kernel left this Run
}

// span is one buffer of a Run.
type span struct {
	i32         bool
	first, last int // the positions it is live at, from and to; len(order) for a fetch's
	n           int // elements this Run: the most any node drawing it needs
	laid        int // n when the layout was made, -1 before
	off         int // elements from its slab's start
}

// lineElems is the elements of a 64-byte cache line. Every span starts
// a whole number of lines into its slab, as TFLite's arena aligns its
// tensors: a slab large enough to matter starts on a page, so a vector
// loop over a buffer splits no load across two lines (unaligned, the
// batch-50 MNIST-CNN step ran some 15 % slower on a 2-vCPU Xeon).
const lineElems = 16

// room is the elements s takes in its slab: n, up to a whole line.
func (s *span) room() int { return (s.n + lineElems - 1) &^ (lineElems - 1) }

// meets reports whether two spans are live at a common node.
func (a *span) meets(b *span) bool { return a.first <= b.last && b.first <= a.last }

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
// compute in place.
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
	for k, node := range order {
		last[k], cacheLast[k], p.forward[k] = k, k, -1
		p.inputs[k] = make([]int, len(node.inputs))
		for i, in := range node.inputs {
			j := p.index[in]
			p.inputs[k][i], last[j] = j, k
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
	for k := n - 1; k >= 0; k-- { // a view's readers come after it
		if m := opMemory[order[k].op]; m.view || m.passes {
			j := p.inputs[k][0]
			last[j] = max(last[j], last[k])
		}
	}
	for k, node := range order {
		p.outSpan[k], p.shares[k] = -1, -1
		m := opMemory[node.op]
		if opRules[node.op].kernel == nil || m.variable {
			continue
		}
		if m.view {
			if s := p.outSpan[p.inputs[k][0]]; s >= 0 {
				p.take(k, 0, last[k])
			}
			continue
		}
		if i, ok := p.inPlace(k, m.inPlace); ok {
			p.take(k, i, last[k])
		} else {
			p.outSpan[k] = p.newSpan(node.dtype == Int32, k, last[k])
		}
		for _, d := range m.scratch {
			end := k
			if d.cache {
				end = cacheLast[k]
			}
			p.scratch[k] = append(p.scratch[k], scratchUse{d, p.newSpan(d.i32, k, end)})
		}
	}
	return p, nil
}

func (p *runPlan) newSpan(i32 bool, first, last int) int {
	p.spans = append(p.spans, span{i32: i32, first: first, last: last, laid: -1})
	return len(p.spans) - 1
}

// take makes the output of position k its input i's span, live now to
// last at least.
func (p *runPlan) take(k, i, last int) {
	j := p.inputs[k][i]
	s := p.outSpan[j]
	p.outSpan[k], p.shares[k] = s, j
	p.spans[s].last = max(p.spans[s].last, last)
}

// inPlace returns the first of the inputs of position k that it may
// compute in place over: a float32 span no node reads after k, which no
// other input of k reads from.
func (p *runPlan) inPlace(k int, inputs []int) (int, bool) {
	for _, i := range inputs {
		s := p.outSpan[p.inputs[k][i]]
		if s < 0 || p.spans[s].i32 || p.spans[s].last != k {
			continue
		}
		alone := true
		for o, j := range p.inputs[k] {
			alone = alone && (o == i || p.outSpan[j] != s)
		}
		if alone {
			return i, true
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
	moved := false
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
	for s := range p.spans {
		moved = moved || p.spans[s].n != p.spans[s].laid
	}
	if moved {
		p.lay()
	}
	return nil
}

// lay places the spans three ways and keeps the layout whose slabs are
// the smaller, the earlier on a tie. The first is greedy by size: the
// largest span first. That leaves a hole beside a long-lived span that a
// large, short-lived one pushed up, as a training step's transposed
// weights do its activations. The other two are greedy by breadth, each
// placement aligned (place): the spans live at the node where the most
// is live first, then the next such node's, each node's largest first
// or longest-lived first. The last stacks the busiest node's spans so
// that the first to die are on top, and later spans fill the room they
// leave. Pisarchyk and Lee describe both orders.
func (p *runPlan) lay() {
	bySize := make([]int, 0, len(p.spans))
	for s := range p.spans {
		p.spans[s].laid = p.spans[s].n
		if p.spans[s].n > 0 {
			bySize = append(bySize, s)
		}
	}
	slices.SortStableFunc(bySize, func(a, b int) int { return cmp.Compare(p.spans[b].n, p.spans[a].n) })
	byLife := slices.Clone(bySize)
	slices.SortStableFunc(byLife, func(a, b int) int { return cmp.Compare(p.spans[b].last, p.spans[a].last) })
	var offs []int
	for i, order := range [][]int{bySize, p.byBreadth(bySize), p.byBreadth(byLife)} {
		if o, f, n := p.place(order, i > 0); offs == nil || f+n < p.f32Len+p.i32Len {
			offs, p.f32Len, p.i32Len = o, f, n
		}
	}
	for s := range p.spans {
		p.spans[s].off = offs[s]
	}
}

// place lays the spans out in the order given, and returns their offsets
// and the slabs' lengths. It puts each span in the smallest gap that
// holds it between the spans of its slab already placed and live beside
// it, or past them all. With align set, the room between the highest of
// those and the slab's top so far is a gap too, and a span goes against
// whichever side of its gap lives longer — the slab's ends outlive every
// span — so that the room a short-lived neighbour leaves joins the gap's
// rest.
func (p *runPlan) place(order []int, align bool) (offs []int, f32Len, i32Len int) {
	offs = make([]int, len(p.spans))
	var near []int // spans placed in the slab of the one placed, live beside it, by offset
	for i, s := range order {
		sp, room := &p.spans[s], p.spans[s].room()
		top := &f32Len
		if sp.i32 {
			top = &i32Len
		}
		near = near[:0]
		for _, o := range order[:i] {
			if op := &p.spans[o]; op.i32 == sp.i32 && op.meets(sp) {
				near = append(near, o)
			}
		}
		slices.SortFunc(near, func(a, b int) int { return cmp.Compare(offs[a], offs[b]) })
		best, gap, at, below := -1, 0, 0, -1 // below: the span that ends at at, -1 for the slab's bottom
		fits := func(end int, above *span) {
			if g := end - at; g >= room && (best < 0 || g < gap) {
				best, gap = at, g
				if align && below >= 0 && (above == nil || above.last > p.spans[below].last) {
					best = end - room
				}
			}
		}
		for _, o := range near {
			fits(offs[o], &p.spans[o])
			if end := offs[o] + p.spans[o].room(); end > at {
				at, below = end, o
			}
		}
		if align {
			fits(*top, nil)
		}
		if best < 0 {
			best = at
		}
		offs[s] = best
		*top = max(*top, best+room)
	}
	return offs, f32Len, i32Len
}

// byBreadth orders spans by the nodes they are live at, the node with
// the most elements live first, and keeps their order at each node.
func (p *runPlan) byBreadth(spans []int) []int {
	breadth := make([]int, len(p.order)+1)
	for _, s := range spans {
		for at := p.spans[s].first; at <= p.spans[s].last; at++ {
			breadth[at] += p.spans[s].room()
		}
	}
	nodes := make([]int, len(breadth))
	for at := range nodes {
		nodes[at] = at
	}
	slices.SortStableFunc(nodes, func(a, b int) int { return cmp.Compare(breadth[b], breadth[a]) })
	order, placed := make([]int, 0, len(spans)), make([]bool, len(p.spans))
	for _, at := range nodes {
		for _, s := range spans {
			if sp := &p.spans[s]; !placed[s] && sp.first <= at && at <= sp.last {
				placed[s] = true
				order = append(order, s)
			}
		}
	}
	return order
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

// slice is span s's first n elements in slab, cleared if zero is set.
// It reaches to the slab's end (within).
func slice[T any](slab []T, s *span, n int, zero bool) []T {
	if n == 0 {
		return []T{}
	}
	buf := slab[s.off : s.off+n]
	if zero {
		clear(buf)
	}
	return buf
}

// within reports whether buf is storage of slab: every slice a Run
// draws reaches to its slab's end.
func within[T any](buf, slab []T) bool {
	return cap(buf) > 0 && cap(slab) > 0 && &buf[:cap(buf)][cap(buf)-1] == &slab[:cap(slab)][cap(slab)-1]
}
