package tf

// freeList is an Arena's memory: every buffer a run draws comes from
// it, and when the run ends it takes back everything the run drew.
// Buffers are matched by exact element count, so a run that repeats the
// last one's shapes allocates nothing. What a run did not draw it drops:
// the list never holds more than the last run used. The scan is linear
// in the buffers of one run, a few dozen.
//
// A runtime that knows when an intermediate is dead hands its buffer back
// before the run ends (put): a later draw of the same run may take it,
// and the run's end keeps it as it keeps what was drawn. What the list
// holds is then at least the run's peak live bytes, and more where a
// buffer handed back waits for a draw of its size. A Session knows its
// shapes before a Run and lays its buffers out instead (runPlan); the
// Lite interpreter's ops have no shape rules to plan from, so it matches
// by size.
type freeList[T any] struct {
	free  [][]T // drawn by the last run
	drawn [][]T // drawn by the current run so far and held
	back  [][]T // drawn by the current run and handed back
}

// get draws a buffer of n elements. A reused buffer holds whatever its
// last user left in it unless zero is set.
func (l *freeList[T]) get(n int, zero bool) []T {
	if n == 0 {
		return []T{}
	}
	buf := take(&l.back, n)
	if buf == nil {
		buf = take(&l.free, n)
	}
	if buf == nil {
		buf = make([]T, n)
	} else if zero {
		clear(buf)
	}
	l.drawn = append(l.drawn, buf)
	return buf
}

// take removes a buffer of n elements from bufs and returns it, or nil.
func take[T any](bufs *[][]T, n int) []T {
	for i, b := range *bufs {
		if len(b) == n {
			last := len(*bufs) - 1
			(*bufs)[i], (*bufs)[last] = (*bufs)[last], nil
			*bufs = (*bufs)[:last]
			return b
		}
	}
	return nil
}

// put hands the backing array of buf, if this run drew it, back for a
// later draw.
func (l *freeList[T]) put(buf []T) {
	for i, b := range l.drawn {
		if sameArray(b, buf) {
			last := len(l.drawn) - 1
			l.drawn[i], l.drawn[last] = l.drawn[last], nil
			l.drawn = l.drawn[:last]
			l.back = append(l.back, b)
			return
		}
	}
}

// recycle ends a run: what it drew is the next run's free list, and
// what it left undrawn is dropped. It returns the elements the list now
// holds.
func (l *freeList[T]) recycle() (held int) {
	clear(l.free)
	l.free, l.drawn = append(l.drawn, l.back...), l.free[:0]
	clear(l.back)
	l.back = l.back[:0]
	for _, b := range l.free {
		held += len(b)
	}
	return held
}

// Arena is a pair of free lists for a runtime that is not a Session: the
// Lite interpreter draws an Invoke's activations from one and hands each
// back once its last reader has run. What it draws stays the arena's; a
// tensor the runtime gives away it makes with NewTensor. An Arena is not
// safe for concurrent use.
type Arena struct {
	f32 freeList[float32]
	i32 freeList[int32]
}

// Draw re-points t at storage for a tensor of dtype and shape drawn from
// the arena, reusing t's shape storage. A reused buffer holds whatever
// its last user left in it unless zero is set.
func (a *Arena) Draw(t *Tensor, dtype DType, shape Shape, zero bool) {
	n := shape.NumElements()
	if n < 0 {
		panic("tf: cannot draw a tensor of unknown shape")
	}
	t.dtype, t.shape, t.f32, t.i32 = dtype, append(t.shape[:0], shape...), nil, nil
	if dtype == Int32 {
		t.i32 = a.i32.get(n, zero)
	} else {
		t.f32 = a.f32.get(n, zero)
	}
}

// Return hands the storage behind t back before the run ends, for a
// later Draw of the same run. Storage the arena did not draw in this run
// — an input, a weight, a buffer already returned — it does not take.
func (a *Arena) Return(t *Tensor) {
	a.f32.put(t.f32)
	a.i32.put(t.i32)
}

// Recycle ends a run: what it drew is the next run's to draw, and what
// it left undrawn is dropped. It returns the bytes the arena now holds.
func (a *Arena) Recycle() int64 {
	return 4 * int64(a.f32.recycle()+a.i32.recycle())
}
