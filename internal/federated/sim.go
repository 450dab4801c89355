package federated

import (
	"fmt"
	"net"
	"time"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
)

// Turnstile orders simulated clients' network exchanges: each client
// takes every exchange in a turn of one vtime.Scheduler, asked for at
// the client's clock and keyed by its id, so a turn is granted only when
// every participant has asked for one and this client's (clock, id) is
// the least. The interleaving is a function of the virtual timeline,
// and whole federated runs (sampling, quorum membership, refusals, final
// variables) are bit-reproducible across processes and GOMAXPROCS
// settings.
//
// A client may ask for its next turn while it holds the current one,
// release, and until it waits do work that charges its clock nothing
// (local training and masking, alongside its peers' turns); a clock
// that moved between request and grant panics. A release wakes only
// the client the turn passes to: on fed-round (seed 1, a 2-vCPU Xeon) a
// release that woke every parked client, each rescanning the roster,
// left 1.38 s of a 2.42 s run between one release and the next grant.
//
// A nil *Turnstile grants every turn immediately, which is the
// free-threaded mode the race-detector churn test runs in.
type Turnstile struct {
	turns vtime.Scheduler
	// frames is the list of frame buffers the members' links borrow
	// from. Their exchanges take turns, so it holds what one exchange
	// needs, whatever the roster's size.
	frames wire.Frames
	// rounds is the list of round buffers the members take while they
	// hold a round: as many sets as are held at once, whatever the
	// roster's size.
	rounds roundList
}

// NewTurnstile returns an empty scheduler. Every participant must Join
// before any of them starts running, or early turns would be granted
// against an incomplete roster.
func NewTurnstile() *Turnstile { return new(Turnstile) }

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

// Join registers participant id, whose turns are asked for at clock's
// time. A second Join of an id is a no-op.
func (t *Turnstile) Join(id int, clock *vtime.Clock) { t.join(id, clock) }

func (t *Turnstile) join(id int, clock *vtime.Clock) turn {
	if t == nil {
		return turn{}
	}
	return turn{actor: t.turns.Join(uint64(id)), id: id, clock: clock}
}

// A turn is a participant's place at a Turnstile; the zero turn, free
// threaded, is granted every turn at once.
type turn struct {
	actor *vtime.Actor
	id    int
	clock *vtime.Clock
	at    time.Duration // the clock at the pending request
}

// request asks for the participant's next turn at its current clock,
// which must not move until wait grants the turn.
func (t *turn) request() {
	if t.actor != nil {
		t.at = t.clock.Now()
		t.actor.Ask(t.at)
	}
}

// wait blocks until the turn requested is granted. It panics if the
// participant's clock moved after the request: the order was decided on
// the old clock.
func (t *turn) wait() {
	if t.actor == nil {
		return
	}
	t.actor.Wait()
	if now := t.clock.Now(); now != t.at {
		panic(fmt.Sprintf("federated: client %d asked for its turn at %v, but its clock moved to %v before the grant", t.id, t.at, now))
	}
}

// release ends the turn wait granted, if it still runs.
func (t *turn) release() { t.actor.Done() }

// leave removes the participant, so the others stop waiting for it.
func (t *turn) leave() { t.actor.Leave() }
