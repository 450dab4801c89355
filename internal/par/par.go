// Package par runs the blocks of a task on the calling goroutine and a
// process-wide set of long-lived helpers: the one fan-out under the
// kernels' split products and secure aggregation's mask fold.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// A Task is work in blocks, numbered from 0, that may run in any order
// and at once: no block writes what another reads or writes.
type Task interface {
	Block(i int)
}

// Run calls task.Block(i) for every i in [0, blocks) on the caller and
// at most width−1 helpers, width = min(blocks, threads, GOMAXPROCS), and
// returns once all have returned. It offers the task to helpers until
// that many have taken it, then runs blocks itself until none is left: a
// helper that is busy, or slow to start, leaves its block to the caller,
// so concurrent callers never oversubscribe the processors or wait on
// each other. The caller yields while the last blocks finish, keeping
// its processor awake for the next call. Once warm, Run allocates
// nothing but, now and then, the runtime's record for a parked helper's
// wait on its wake channel (96 B).
func Run(task Task, blocks, threads int) {
	width := min(blocks, threads, runtime.GOMAXPROCS(0))
	helpersMu.Lock()
	for len(helpers) < width-1 {
		h := &helper{wake: make(chan struct{}, 1)}
		helpers = append(helpers, h)
		go h.loop()
	}
	hs := helpers
	helpersMu.Unlock()

	s := splits.Get()
	s.task, s.blocks = task, blocks
	s.next.Store(0)
	s.pending.Store(int32(blocks))
	s.refs.Store(1)
	for i, handed := 0, 0; i < len(hs) && handed < width-1; i++ {
		s.refs.Add(1)
		if hs[i].offer(s) {
			handed++
		} else {
			s.refs.Add(-1)
		}
	}
	s.runBlocks()
	for s.pending.Load() > 0 {
		runtime.Gosched()
	}
	s.release()
}

// split is one call of Run, shared by the goroutines that run its
// blocks. Each claims blocks from next until none is left and counts
// each it finishes off pending; refs counts the goroutines that still
// hold the split, and the last to let go recycles it. Only a claimed
// block touches task, so the caller may reuse it once Run returns.
type split struct {
	task    Task
	blocks  int
	next    atomic.Int32
	pending atomic.Int32
	refs    atomic.Int32
}

// runBlocks claims blocks of s until none is left and runs each.
func (s *split) runBlocks() {
	for {
		i := int(s.next.Add(1) - 1)
		if i >= s.blocks {
			return
		}
		s.task.Block(i)
		s.pending.Add(-1)
	}
}

// release lets go of s; the last goroutine to do so recycles it.
func (s *split) release() {
	if s.refs.Add(-1) > 0 {
		return
	}
	s.task = nil // hold no caller's memory while free
	splits.Put(s)
}

// spinYields is how many times an idle helper yields its processor
// before it parks, about a millisecond: longer than serve-steady leaves
// between two layers or two requests. A parked helper's thread sleeps,
// and waking it again took a median 125 µs on a 2-vCPU VM (a runtime
// trace of serve-steady), a third of the block it was woken for: by
// then the caller has usually run that block itself.
const spinYields = 1 << 13

// helper is a long-lived goroutine that runs blocks of the splits
// handed to it in slot: nil while it waits for one, spinning; the split
// while it runs its blocks; parked once it has waited spinYields yields,
// until a caller hands it a split and signals wake.
type helper struct {
	slot atomic.Pointer[split]
	wake chan struct{} // one signal at most: only the caller that unparks it sends
}

// parked marks the slot of a parked helper.
var parked = new(split)

func (h *helper) loop() {
	for {
		s := h.await()
		s.runBlocks()
		s.release()
		h.slot.Store(nil)
	}
}

// await returns the next split handed to h.
func (h *helper) await() *split {
	for spins := 0; ; spins++ {
		if s := h.slot.Load(); s != nil {
			return s
		}
		if spins < spinYields {
			runtime.Gosched()
		} else if h.slot.CompareAndSwap(nil, parked) {
			<-h.wake
			return h.slot.Load()
		}
	}
}

// offer hands s to h if h is waiting for work, spinning or parked.
func (h *helper) offer(s *split) bool {
	if h.slot.CompareAndSwap(nil, s) {
		return true
	}
	if h.slot.CompareAndSwap(parked, s) {
		h.wake <- struct{}{}
		return true
	}
	return false
}

var (
	helpersMu sync.Mutex
	// helpers are started as a call first needs them and live as long
	// as the process, as the runtime's own workers do.
	helpers []*helper
	splits  = make(Free[split], 64) // above the splits in flight at once
)

// Free is a bounded free list that, unlike a sync.Pool, keeps what it
// holds across collections and processors: Get returns a *T as Put left
// it, or a new one, and Put drops p when the list is full. Its buffer is
// the most it keeps.
type Free[T any] chan *T

func (f Free[T]) Get() *T {
	select {
	case p := <-f:
		return p
	default:
		return new(T)
	}
}

func (f Free[T]) Put(p *T) {
	select {
	case f <- p:
	default:
	}
}
