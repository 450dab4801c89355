package federated

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
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
// One wake per turn. Each participant parks on its own one-slot wake
// channel, and every change that can pass the turn on — a Join, a
// request, a release, a Leave — finds the minimum of the complete
// roster once and signals that holder alone. The releaser then yields
// its processor, so the successor it just readied runs at once instead
// of queuing behind the releaser's off-turn training. On fed-round (seed 1, a 2-vCPU
// Xeon) a release that woke every parked client, each rescanning the
// roster, left 1.38 s of a 2.42 s run between one release and the next
// grant (handoffs: median 87 µs, p90 1.8 ms, p99 4.7 ms); one wake and
// the yield cut that sum to 0.07 s (median 12 µs, p99 84 µs).
//
// A nil *Turnstile grants every turn immediately, which is the
// free-threaded mode the race-detector churn test runs in.
type Turnstile struct {
	mu      sync.Mutex
	members map[int]*member
	// asking counts the members with a request not yet granted; the
	// roster is complete when it equals len(members).
	asking  int
	running bool
	// next is the member the turn passes to, and was signalled: the
	// minimum of the complete roster while no turn runs, else -1.
	next int
	// frames is the list of frame buffers the members' links borrow
	// from. Their exchanges take turns, so it holds what one exchange
	// needs, whatever the roster's size.
	frames wire.Frames
	// rounds is the list of round buffers the members take while they
	// hold a round: as many sets as are held at once, whatever the
	// roster's size.
	rounds roundList
}

// member is one participant's place in the roster.
type member struct {
	clock *vtime.Clock
	// at is the clock at the pending request, if asked: the ordering
	// key, fixed until the turn is granted.
	at    time.Duration
	asked bool
	wake  chan struct{}
}

// NewTurnstile returns an empty scheduler. Every participant must Join
// before any of them starts running, or early turns would be granted
// against an incomplete roster.
func NewTurnstile() *Turnstile {
	return &Turnstile{members: make(map[int]*member), next: -1}
}

// link wraps a member's fresh connection to the coordinator: a link
// that borrows its frame buffers from the turnstile's list, or, free
// threaded, from a list of its own.
func (t *Turnstile) link(conn net.Conn, vars func(name string) *tf.Tensor) *dist.Link {
	if t == nil {
		return dist.NewLink(conn, vars)
	}
	return dist.NewLinkFrom(&t.frames, conn, vars)
}

// roundBuffers is where a member takes its round buffers from: the
// turnstile's list, or, free threaded, a list of its own.
func (t *Turnstile) roundBuffers() *roundList {
	if t == nil {
		return new(roundList)
	}
	return &t.rounds
}

// Join registers a participant and its clock.
func (t *Turnstile) Join(id int, clock *vtime.Clock) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.members[id]; ok {
		return
	}
	t.members[id] = &member{clock: clock, wake: make(chan struct{}, 1)}
	t.handOnLocked()
}

// Leave removes a finished participant so the remaining ones stop
// waiting for it.
func (t *Turnstile) Leave(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[id]
	if !ok {
		return
	}
	if m.asked {
		t.asking--
	}
	delete(t.members, id)
	t.handOnLocked()
}

// request asks for the caller's next turn at its current clock, which
// must not move until wait grants the turn.
func (t *Turnstile) request(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[id]
	if !m.asked {
		m.asked = true
		t.asking++
	}
	m.at = m.clock.Now()
	// A new request can complete the roster and pass the turn on — to a
	// peer already waiting.
	t.handOnLocked()
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
	m := t.members[id]
	for t.next != id {
		t.mu.Unlock()
		<-m.wake
		t.mu.Lock()
	}
	if now := m.clock.Now(); now != m.at {
		panic(fmt.Sprintf("federated: client %d asked for its turn at %v, but its clock moved to %v before the grant", id, m.at, now))
	}
	select { // a signal this grant did not wait for
	case <-m.wake:
	default:
	}
	m.asked = false
	t.asking--
	t.running, t.next = true, -1
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.running = false
			t.handOnLocked()
			t.mu.Unlock()
			runtime.Gosched()
		})
	}
}

// handOnLocked finds the member the turn passes to — the minimum
// (requested clock, id) of the full roster, with no turn in flight —
// and signals it, once. Waiting for the full roster is what makes the
// order a pure function of the clocks rather than of goroutine
// scheduling.
func (t *Turnstile) handOnLocked() {
	next := -1
	if !t.running && t.asking == len(t.members) {
		var at time.Duration
		for id, m := range t.members {
			if next < 0 || m.at < at || m.at == at && id < next {
				next, at = id, m.at
			}
		}
	}
	if next == t.next {
		return
	}
	t.next = next
	if next >= 0 {
		select {
		case t.members[next].wake <- struct{}{}:
		default:
		}
	}
}
