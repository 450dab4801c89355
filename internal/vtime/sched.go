package vtime

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Anytime is earlier than every virtual time. An actor idle at Anytime
// has declared no earliest next time, so it blocks every waiter; one
// that asks at Anytime waits only for the turn that runs.
const Anytime = time.Duration(math.MinInt64)

// Scheduler grants turns to its actors one at a time, in (virtual time,
// id) order: the earliest waiter goes next, ties go by id, and it goes
// only once no idle actor may still ask for an earlier turn. An idle
// actor declares the earliest virtual time at which it may ask again,
// its lookahead, so the order of the turns is a function of the virtual
// timeline, not of which goroutine the host ran first: conservative
// discrete-event simulation (Chandy and Misra, 1979; Bryant, 1977).
//
// An actor is in one of four states:
//   - idle, with a declared earliest next time (Idle) or with none (at
//     Anytime: as Join leaves it, and as Done leaves one that did not
//     ask again), blocking every waiter after that time;
//   - waiting at a time (Ask);
//   - parked (Park), blocking no one;
//   - running: it holds the one turn (Wait). A running actor may ask for
//     its next turn before it ends this one.
//
// Each change that can pass the turn on wakes at most one actor, the
// one the turn passes to, on its own one-slot channel; a turn ends, and
// a waiter is granted, without waking anyone else. A nil *Scheduler,
// and the nil *Actor it joins, grant every turn at once: the
// free-threaded mode.
type Scheduler struct {
	mu     sync.Mutex
	actors []*Actor
	// turn is the running actor, nil between turns; next is the actor
	// the turn passes to, and was woken, or nil.
	turn, next *Actor
	closed     bool
}

type state uint8

const (
	idle state = iota
	waiting
	parked
	running
)

// An Actor is one of a Scheduler's participants.
type Actor struct {
	s     *Scheduler
	id    uint64
	state state
	// at is the time it waits at or, idle, the earliest it may ask at.
	at   time.Duration
	wake chan struct{}
}

// Join adds the actor id, idle with no declared time, or returns the
// actor already joined under id. Every actor joins before the turns it
// must not miss are granted.
func (s *Scheduler) Join(id uint64) *Actor {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.actors {
		if a.id == id {
			return a
		}
	}
	a := &Actor{s: s, id: id, at: Anytime, wake: make(chan struct{}, 1)}
	s.actors = append(s.actors, a)
	s.handOnLocked()
	return a
}

// Close grants every turn asked for, now or later, at once.
func (s *Scheduler) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, a := range s.actors {
		a.signal()
	}
}

// Ask asks for the actor's next turn at at. A running actor keeps the
// turn it holds until it ends it.
func (a *Actor) Ask(at time.Duration) { a.set(waiting, at) }

// Idle ends the actor's turn, if it runs, and declares at the earliest
// time it may ask again.
func (a *Actor) Idle(at time.Duration) { a.set(idle, at) }

// Park ends the actor's turn, if it runs, and parks it until it asks
// again.
func (a *Actor) Park() { a.set(parked, 0) }

// Done ends the actor's turn, if it runs. One that asked during the turn
// waits; one that did not is idle, with no declared time.
func (a *Actor) Done() {
	if a == nil {
		return
	}
	s := a.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.turn == a {
		if a.state == running {
			a.state, a.at = idle, Anytime
		}
		s.turn = nil
		s.handOnLocked()
	}
}

// Wait blocks until the turn the actor asked for is granted.
func (a *Actor) Wait() {
	if a == nil {
		return
	}
	s := a.s
	s.mu.Lock()
	for s.next != a && !s.closed {
		s.mu.Unlock()
		<-a.wake
		s.mu.Lock()
	}
	select { // a wake this grant did not wait for
	case <-a.wake:
	default:
	}
	a.state, s.turn, s.next = running, a, nil
	s.mu.Unlock()
}

// Leave removes the actor, ending its turn if it runs.
func (a *Actor) Leave() {
	if a == nil {
		return
	}
	s := a.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.actors, a); i >= 0 {
		s.actors = slices.Delete(s.actors, i, i+1)
	}
	if s.turn == a {
		s.turn = nil
	}
	s.handOnLocked()
}

// set moves the actor to st at at, ending its turn unless it asks.
func (a *Actor) set(st state, at time.Duration) {
	if a == nil {
		return
	}
	s := a.s
	s.mu.Lock()
	a.state, a.at = st, at
	if s.turn == a && st != waiting {
		s.turn = nil
	}
	s.handOnLocked()
	s.mu.Unlock()
}

// before orders actors by (at, id).
func (a *Actor) before(b *Actor) bool {
	return a.at < b.at || a.at == b.at && a.id < b.id
}

func (a *Actor) signal() {
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// handOnLocked finds the actor the turn passes to, the earliest waiter
// if no turn runs and no idle actor is earlier, and wakes it, once.
func (s *Scheduler) handOnLocked() {
	var next, first *Actor // the earliest waiter, the earliest idle actor
	if s.turn == nil {
		for _, a := range s.actors {
			switch {
			case a.state == waiting && (next == nil || a.before(next)):
				next = a
			case a.state == idle && (first == nil || a.before(first)):
				first = a
			}
		}
		if next != nil && first != nil && first.before(next) {
			next = nil
		}
	}
	if next == s.next {
		return
	}
	s.next = next
	if next != nil {
		next.signal()
	}
}
