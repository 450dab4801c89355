package tflite

import (
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/tf"
)

// For the external tests, which run the repo's models: a package that
// imports this one.

// Dirty fills ip's slabs and the outputs it keeps with NaN (-1 for the
// integers), the Lite twin of tf's Dirty: a kernel that overwrites its
// output covers it, and a sum into a buffer nobody cleared does not.
// Every span's header from the last Invoke reaches to its slab's end,
// and the first span laid out starts at the slab's start, so the
// headers reach all of it.
func Dirty(ip *Interpreter) {
	for _, t := range ip.outs {
		switch {
		case t == nil:
		case t.DType() == tf.Int32:
			for i := range t.Ints() {
				t.Ints()[i] = -1
			}
		default:
			for i := range t.Floats() {
				t.Floats()[i] = float32(math.NaN())
			}
		}
	}
	for k, s := range ip.plan.span {
		if s < 0 {
			continue
		}
		if t := &ip.slots[k]; t.DType() == tf.Int32 {
			n := t.Ints()
			for i := range n[:cap(n)] {
				n[:cap(n)][i] = -1
			}
		} else {
			f := t.Floats()
			for i := range f[:cap(f)] {
				f[:cap(f)][i] = float32(math.NaN())
			}
		}
	}
}

// SlabBytes is the bytes of the slabs ip's last layout needs.
func SlabBytes(ip *Interpreter) int64 {
	f32, i32 := ip.plan.Lens()
	return 4 * int64(f32+i32)
}

// buffer is one activation an Invoke draws from the slabs, with its
// liveness as derived here from the op list.
type buffer struct {
	i32, off, n, first, last int
}

// buffers lists the activations ip's last Invoke drew: each op's output
// but a Reshape's (a view) and a model output's or the storage one
// views (kept out of the slabs), live from its op to the last op that reads it or
// a view of it.
func buffers(ip *Interpreter) []buffer {
	m := ip.model
	holds := make([]int, len(m.Tensors)) // per index: the op whose output storage it holds now, or -1
	for i := range holds {
		holds[i] = -1
	}
	owner, last := make([]int, len(m.Ops)), make([]int, len(m.Ops))
	for k, op := range m.Ops {
		for _, in := range op.Inputs {
			if o := holds[in]; o >= 0 {
				last[o] = k
			}
		}
		owner[k], last[k] = k, k
		if op.Code == OpReshape {
			owner[k] = holds[op.Inputs[0]]
		}
		holds[op.Outputs[0]] = owner[k]
	}
	given := make([]bool, len(m.Ops))
	for _, idx := range m.Outputs {
		if o := holds[idx]; o >= 0 {
			given[o] = true
		}
	}
	var bufs []buffer
	for k, op := range m.Ops {
		if owner[k] == k && !given[k] {
			i32 := 0
			if op.Code == OpArgMax {
				i32 = 1
			}
			bufs = append(bufs, buffer{i32, ip.plan.Off(ip.plan.span[k]), ip.slots[k].NumElements(), k, last[k]})
		}
	}
	return bufs
}

// sweep walks the ops and returns, per slab (float32, int32), the
// highest end of a buffer live at one of them and the most elements
// live at one. A buffer takes whole 64-byte lines.
func sweep(bufs []buffer, ops int) (high, most [2]int) {
	for at := 0; at < ops; at++ {
		var live [2]int
		for _, b := range bufs {
			if room := (b.n + 15) &^ 15; b.first <= at && at <= b.last && b.n > 0 {
				high[b.i32] = max(high[b.i32], b.off+room)
				live[b.i32] += room
			}
		}
		most[0], most[1] = max(most[0], live[0]), max(most[1], live[1])
	}
	return high, most
}

// PeakLiveBytes is the most bytes the activations of ip's last Invoke
// hold live at one op, as sweep finds it.
func PeakLiveBytes(ip *Interpreter) int64 {
	_, most := sweep(buffers(ip), len(ip.model.Ops))
	return 4 * int64(most[0]+most[1])
}

// LayoutFault checks the layout of ip's last Invoke against the
// liveness buffers derives, and describes the first fault: every
// buffer lies in its slab, from the start of a 64-byte line; no two
// that are live at one op overlap; and each slab is as long as the
// highest end of a buffer live at an op, and at least the most that is
// live at any.
func LayoutFault(ip *Interpreter) string {
	bufs := buffers(ip)
	var slabs [2]int
	slabs[0], slabs[1] = ip.plan.Lens()
	for i, a := range bufs {
		if a.off+a.n > slabs[a.i32] || a.off%16 != 0 {
			return fmt.Sprintf("a buffer of %d elements at %d in a slab of %d", a.n, a.off, slabs[a.i32])
		}
		for _, b := range bufs[i+1:] {
			if a.i32 == b.i32 && a.n > 0 && b.n > 0 && a.first <= b.last && b.first <= a.last &&
				a.off < b.off+b.n && b.off < a.off+a.n {
				return fmt.Sprintf("the outputs of ops %d and %d, live over [%d,%d] and [%d,%d], overlap at %d and %d",
					a.first, b.first, a.first, a.last, b.first, b.last, a.off, b.off)
			}
		}
	}
	high, most := sweep(bufs, len(ip.model.Ops))
	for d, slab := range slabs {
		if slab != high[d] || slab < most[d] {
			return fmt.Sprintf("a slab of %d elements where the highest live buffer ends at %d and at most %d are live", slab, high[d], most[d])
		}
	}
	return ""
}
