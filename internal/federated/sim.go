package federated

import (
	"fmt"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/vtime"
)

// Turnstile is a discrete-event scheduler for simulated clients: it
// serializes the participants' network actions in global
// (virtual time, id) order. Each client wraps every network exchange in
// a turn. A turn is asked for at a clock (request) and granted (wait)
// only when every live participant has asked for one and this client's
// (clock it asked at, id) pair is the minimum — so the interleaving is
// a pure function of the virtual timeline, and whole federated runs
// (sampling, quorum membership, refusals, final variables) are
// bit-reproducible across processes and GOMAXPROCS settings.
//
// A client may ask for its next turn while it holds the current one,
// release, and until it waits do work that charges its clock nothing
// (local training and masking, alongside its peers' turns); a clock
// that moved between request and grant panics.
//
// A nil *Turnstile grants every turn immediately, which is the
// free-threaded mode the race-detector churn test runs in.
type Turnstile struct {
	mu     sync.Mutex
	cond   *sync.Cond
	clocks map[int]*vtime.Clock
	// asked holds each requesting participant's clock at its request:
	// the ordering key, fixed until the turn is granted.
	asked   map[int]time.Duration
	alive   int
	running bool
}

// NewTurnstile returns an empty scheduler. Every participant must Join
// before any of them starts running, or early turns would be granted
// against an incomplete roster.
func NewTurnstile() *Turnstile {
	t := &Turnstile{
		clocks: make(map[int]*vtime.Clock),
		asked:  make(map[int]time.Duration),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Join registers a participant and its clock.
func (t *Turnstile) Join(id int, clock *vtime.Clock) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.clocks[id]; ok {
		return
	}
	t.clocks[id] = clock
	t.alive++
}

// Leave removes a finished participant so the remaining ones stop
// waiting for it.
func (t *Turnstile) Leave(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.clocks[id]; !ok {
		return
	}
	delete(t.clocks, id)
	delete(t.asked, id)
	t.alive--
	t.cond.Broadcast()
}

// request asks for the caller's next turn at its current clock, which
// must not move until wait grants the turn.
func (t *Turnstile) request(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.asked[id] = t.clocks[id].Now()
	// A new request can complete the roster and unblock the minimum
	// holder — which may be a peer already waiting.
	t.cond.Broadcast()
}

// wait blocks until the turn the caller requested is granted and
// returns the release that ends it. It panics if the caller's clock
// moved after the request: the order was decided on the old clock.
func (t *Turnstile) wait(id int) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.myTurnLocked(id) {
		t.cond.Wait()
	}
	if at, now := t.asked[id], t.clocks[id].Now(); now != at {
		panic(fmt.Sprintf("federated: client %d asked for its turn at %v, but its clock moved to %v before the grant", id, at, now))
	}
	delete(t.asked, id)
	t.running = true
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.running = false
			t.cond.Broadcast()
			t.mu.Unlock()
		})
	}
}

// myTurnLocked reports whether the caller holds the minimum
// (requested time, id) among the full live roster, with no turn in
// flight. Waiting for the full roster is what makes the order a pure
// function of the clocks rather than of goroutine scheduling.
func (t *Turnstile) myTurnLocked(id int) bool {
	if t.running || len(t.asked) < t.alive {
		return false
	}
	mine := t.asked[id]
	for other, at := range t.asked {
		if other != id && (at < mine || at == mine && other < id) {
			return false
		}
	}
	return true
}
