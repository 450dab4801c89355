package tf

import (
	"cmp"
	"slices"
)

// Layout places the buffers of a run of steps — a Session's Run of
// nodes, the Lite interpreter's Invoke of ops — in two slabs, one
// float32 and one int32. Each buffer is a span, live from the step that
// first draws it to the last that reads it; the runtime declares them
// once (Span) and sizes them before each run (Size). When a size moved,
// Lay places them again, greedily, each span in the tightest gap among
// the spans live beside it, as TFLite's arena planner does (Pisarchyk
// and Lee, "Efficient Memory Management for Deep Neural Net Inference",
// 2020). Fit then makes a runtime's Slabs as long as the layout needs,
// and Draw points a tensor header at a span's storage there. A Layout
// is not safe for concurrent use.
type Layout struct {
	spans  []span
	f32Len int // elements of the float32 slab the layout needs
	i32Len int // and of the int32 slab
}

// span is one buffer of a run.
type span struct {
	i32         bool
	first, last int // the steps it is live at, from and to
	n           int // elements this run: the most any step drawing it needs
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

// meets reports whether two spans are live at a common step.
func (a *span) meets(b *span) bool { return a.first <= b.last && b.first <= a.last }

// Span declares a buffer of int32s (else float32s) live from step first
// to step last, and returns its index.
func (l *Layout) Span(i32 bool, first, last int) int {
	l.spans = append(l.spans, span{i32: i32, first: first, last: last, laid: -1})
	return len(l.spans) - 1
}

// Size sets span s to n elements for the next run.
func (l *Layout) Size(s, n int) { l.spans[s].n = n }

// Lay places the spans again if a size moved since they were last
// placed.
func (l *Layout) Lay() {
	for s := range l.spans {
		if l.spans[s].n != l.spans[s].laid {
			l.lay()
			return
		}
	}
}

// Off is span s's offset, in elements, in its slab.
func (l *Layout) Off(s int) int { return l.spans[s].off }

// Lens is the elements of the float32 and the int32 slab the layout
// needs.
func (l *Layout) Lens() (f32, i32 int) { return l.f32Len, l.i32Len }

// lay places the spans three ways and keeps the layout whose slabs are
// the smaller, the earlier on a tie. The first is greedy by size: the
// largest span first. That leaves a hole beside a long-lived span that a
// large, short-lived one pushed up, as a training step's transposed
// weights do its activations. The other two are greedy by breadth, each
// placement aligned (place): the spans live at the step where the most
// is live first, then the next such step's, each step's largest first
// or longest-lived first. The last stacks the busiest step's spans so
// that the first to die are on top, and later spans fill the room they
// leave. Pisarchyk and Lee describe both orders.
func (l *Layout) lay() {
	bySize := make([]int, 0, len(l.spans))
	for s := range l.spans {
		l.spans[s].laid = l.spans[s].n
		if l.spans[s].n > 0 {
			bySize = append(bySize, s)
		}
	}
	slices.SortStableFunc(bySize, func(a, b int) int { return cmp.Compare(l.spans[b].n, l.spans[a].n) })
	byLife := slices.Clone(bySize)
	slices.SortStableFunc(byLife, func(a, b int) int { return cmp.Compare(l.spans[b].last, l.spans[a].last) })
	var offs []int
	for i, order := range [][]int{bySize, l.byBreadth(bySize), l.byBreadth(byLife)} {
		if o, f, n := l.place(order, i > 0); offs == nil || f+n < l.f32Len+l.i32Len {
			offs, l.f32Len, l.i32Len = o, f, n
		}
	}
	for s := range l.spans {
		l.spans[s].off = offs[s]
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
func (l *Layout) place(order []int, align bool) (offs []int, f32Len, i32Len int) {
	offs = make([]int, len(l.spans))
	var near []int // spans placed in the slab of the one placed, live beside it, by offset
	for i, s := range order {
		sp, room := &l.spans[s], l.spans[s].room()
		top := &f32Len
		if sp.i32 {
			top = &i32Len
		}
		near = near[:0]
		for _, o := range order[:i] {
			if op := &l.spans[o]; op.i32 == sp.i32 && op.meets(sp) {
				near = append(near, o)
			}
		}
		slices.SortFunc(near, func(a, b int) int { return cmp.Compare(offs[a], offs[b]) })
		best, gap, at, below := -1, 0, 0, -1 // below: the span that ends at at, -1 for the slab's bottom
		fits := func(end int, above *span) {
			if g := end - at; g >= room && (best < 0 || g < gap) {
				best, gap = at, g
				if align && below >= 0 && (above == nil || above.last > l.spans[below].last) {
					best = end - room
				}
			}
		}
		for _, o := range near {
			fits(offs[o], &l.spans[o])
			if end := offs[o] + l.spans[o].room(); end > at {
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

// byBreadth orders spans by the steps they are live at, the step with
// the most elements live first, and keeps their order at each step.
func (l *Layout) byBreadth(spans []int) []int {
	var breadth []int
	for _, s := range spans {
		sp := &l.spans[s]
		if len(breadth) <= sp.last {
			breadth = append(breadth, make([]int, sp.last+1-len(breadth))...)
		}
		for at := sp.first; at <= sp.last; at++ {
			breadth[at] += sp.room()
		}
	}
	steps := make([]int, len(breadth))
	for at := range steps {
		steps[at] = at
	}
	slices.SortStableFunc(steps, func(a, b int) int { return cmp.Compare(breadth[b], breadth[a]) })
	order, placed := make([]int, 0, len(spans)), make([]bool, len(l.spans))
	for _, at := range steps {
		for _, s := range spans {
			if sp := &l.spans[s]; !placed[s] && sp.first <= at && at <= sp.last {
				placed[s] = true
				order = append(order, s)
			}
		}
	}
	return order
}

// Slabs is a runtime's storage for the spans of its Layouts: one
// float32 and one int32 slab, as long as the last layout fitted to it
// needs.
type Slabs struct {
	f32 []float32
	i32 []int32
}

// Fit makes slabs as long as the layout needs. A slab of another length
// is replaced: a batch-10 000 evaluation's is not pinned under a trainer.
func (l *Layout) Fit(slabs *Slabs) {
	slabs.f32, slabs.i32 = fit(slabs.f32, l.f32Len), fit(slabs.i32, l.i32Len)
}

func fit[T any](slab []T, n int) []T {
	if len(slab) != n {
		return make([]T, n)
	}
	return slab
}

// Draw re-points t, reusing its shape storage, at span s's storage in
// slabs, fitted to the layout, for a tensor of dtype and shape, cleared
// if zero is set: else it holds whatever its last user left there. The
// span is of dtype's slab and sized for shape.
func (l *Layout) Draw(slabs *Slabs, t *Tensor, s int, dtype DType, shape Shape, zero bool) {
	sp, n := &l.spans[s], shape.NumElements()
	if sp.i32 != (dtype == Int32) || n > sp.n {
		panic("tf: a " + dtype.String() + " tensor of shape " + shape.String() + " drawn into a span not laid out for it")
	}
	t.dtype, t.shape, t.f32, t.i32 = dtype, append(t.shape[:0], shape...), nil, nil
	if sp.i32 {
		t.i32 = slice(slabs.i32, sp, n, zero)
	} else {
		t.f32 = slice(slabs.f32, sp, n, zero)
	}
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

// within reports whether buf is storage of slab: every slice a run
// draws reaches to its slab's end.
func within[T any](buf, slab []T) bool {
	return cap(buf) > 0 && cap(slab) > 0 && &buf[:cap(buf)][cap(buf)-1] == &slab[:cap(slab)][cap(slab)-1]
}
