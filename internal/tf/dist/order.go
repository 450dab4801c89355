package dist

import (
	"sync"
	"time"
)

// A synchronous shard without a round timeout serves its workers'
// frames in the order they were sent, not in the order the host
// delivers them: by (virtual arrival, worker, seat), the rule the
// federated Turnstile keeps for its clients, kept here by the shard.
// One frame is served at a time, and its answer is sent, before the
// next is started, so the charges one frame makes on the shard's clock
// never interleave with another's.
//
// A connection takes a seat once its hello is answered. A seated frame
// is served once no seat can still send an earlier one: every other
// seat has its next frame read up to its stamp, waits at the barrier,
// or cannot send before this frame's arrival, since a worker sends its
// next frame only after it has read the shard's answer to its last, a
// round trip after that answer's stamp. The barrier's commit answers
// every pusher at the commit's time, in worker order. A frame from a
// connection without a seat — a hello, or a peer that never said one —
// is served alone but out of order: the shard cannot know who else may
// come. So the job's workers say hello one after another before any of
// them pulls (TrainDistributed, train-sync's set-up), and from then on
// the shard's clock, every stamp it sends and every commit are a
// function of the frames' stamps alone.
//
// A shard with a round timeout waits for stragglers on the wall clock,
// and an elastic or asynchronous one admits frames no order can wait
// for; they serve frames as the host delivers them.
type order struct {
	seats []*seat
	// serving is set while a frame is served, by a seat or a stranger.
	serving bool
	turn    *sync.Cond // on ParameterServer.mu
	taken   uint64     // seats taken so far: the last tie-break
}

// seat is one seated connection's place in the order.
type seat struct {
	worker uint32
	n      uint64
	state  seatState
	// at is when the frame it waits with arrives, or the commit's time
	// for an answer from the barrier; for an idle seat, the earliest its
	// next frame can arrive.
	at time.Duration
}

type seatState uint8

const (
	seatIdle    seatState = iota // its next frame is not read up to its stamp
	seatWaiting                  // a frame, or the barrier's answer, waits to be served
	seatParked                   // at the barrier
	seatServing                  // being served
)

// before orders seats by (at, worker, n).
func (s *seat) before(o *seat) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	if s.worker != o.worker {
		return s.worker < o.worker
	}
	return s.n < o.n
}

// nextLocked is the seat to serve now, or nil.
func (o *order) nextLocked() *seat {
	if o.serving {
		return nil
	}
	var next *seat
	for _, s := range o.seats {
		if s.state == seatWaiting && (next == nil || s.before(next)) {
			next = s
		}
	}
	if next == nil {
		return nil
	}
	for _, s := range o.seats {
		if s.state == seatIdle && s.before(next) {
			return nil
		}
	}
	return next
}

// await blocks until the frame read up to its stamp on the connection
// of seat s (nil for one without a seat) may be served, and marks it
// served. A closed shard serves at once.
func (ps *ParameterServer) await(s *seat, stamp time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if s != nil {
		s.state, s.at = seatWaiting, ps.cfg.Meter.Arrival(stamp)
		ps.order.turn.Broadcast()
	}
	ps.awaitLocked(s)
}

// awaitLocked blocks until waiting seat s is next, or, for a connection
// without a seat (s nil), until nothing is served, and serves it.
func (ps *ParameterServer) awaitLocked(s *seat) {
	o := ps.order
	for !ps.closed && (s == nil && o.serving || s != nil && o.nextLocked() != s) {
		o.turn.Wait()
	}
	if s != nil {
		s.state = seatServing
	}
	o.serving = true
}

// served ends the service of a frame on the connection of seat s (nil
// for one without a seat) whose answer was stamped sent.
func (ps *ParameterServer) served(s *seat, sent time.Duration) {
	o := ps.order
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if s != nil {
		s.state, s.at = seatIdle, ps.cfg.Meter.Arrival(ps.cfg.Meter.Arrival(sent))
	}
	o.serving = false
	o.turn.Broadcast()
}

// sit gives the connection whose hello from worker was just served a
// seat, idle from now on.
func (ps *ParameterServer) sit(worker uint32) *seat {
	o := ps.order
	ps.mu.Lock()
	defer ps.mu.Unlock()
	o.taken++
	s := &seat{worker: worker, n: o.taken, state: seatServing}
	o.seats = append(o.seats, s)
	return s
}

// leave gives up seat s, whose connection is gone, and the service it
// held, if any.
func (ps *ParameterServer) leave(s *seat, serving bool) {
	o := ps.order
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if s != nil {
		for i, t := range o.seats {
			if t == s {
				o.seats = append(o.seats[:i], o.seats[i+1:]...)
				break
			}
		}
	}
	if serving {
		o.serving = false
	}
	o.turn.Broadcast()
}

// parkLocked moves the push being served on the connection of seat s
// (nil for one without a seat) to the barrier.
func (ps *ParameterServer) parkLocked(s *seat) {
	if s != nil {
		s.state = seatParked
	}
	ps.order.serving = false
	ps.order.turn.Broadcast()
}

// answerLocked readies the barrier's answers: every seat at the barrier,
// and the one being served whose push finished the round, waits to be
// answered at the shard's time now, in worker order.
func (ps *ParameterServer) answerLocked() {
	o := ps.order
	now := ps.cfg.Meter.Clock().Now()
	for _, s := range o.seats {
		if s.state == seatServing {
			o.serving = false
		}
		if s.state == seatParked || s.state == seatServing {
			s.state, s.at = seatWaiting, now
		}
	}
	o.turn.Broadcast()
}
