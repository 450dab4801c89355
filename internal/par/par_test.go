package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// counts is a task that counts how often each block runs.
type counts []atomic.Int32

func (c counts) Block(i int) { c[i].Add(1) }

// TestRunEachBlockOnce: Run runs every block exactly once and returns
// after the last, whatever the blocks, the threads and the callers at
// once, and it starts no helper a call's width does not ask for.
func TestRunEachBlockOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bound := max(started(), 3)
	var wg sync.WaitGroup
	for caller := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, blocks := range []int{0, 1, 2, 3, 7, 64} {
				for _, threads := range []int{1, 2, 4, 16} {
					c := make(counts, blocks)
					Run(c, blocks, threads)
					for i := range c {
						if n := c[i].Load(); n != 1 {
							t.Errorf("caller %d, %d blocks on %d threads: block %d ran %d times", caller, blocks, threads, i, n)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := started(); got > bound {
		t.Errorf("%d helpers started, want at most %d", got, bound)
	}
}

func started() int {
	helpersMu.Lock()
	defer helpersMu.Unlock()
	return len(helpers)
}

// TestParkedHelpersWake: helpers that have parked take the next call's
// blocks once they are woken.
func TestParkedHelpersWake(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	Run(make(counts, 2), 2, 2)
	helpersMu.Lock()
	hs := helpers
	helpersMu.Unlock()
	for _, h := range hs {
		for h.slot.Load() != parked {
			runtime.Gosched()
		}
	}
	for i := range 3 {
		c := make(counts, 8)
		Run(c, 8, 2)
		for j := range c {
			if n := c[j].Load(); n != 1 {
				t.Fatalf("call %d: block %d ran %d times", i, j, n)
			}
		}
	}
}
