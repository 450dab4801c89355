package dist

import "errors"

// Round admits the pushes of one synchronous round for both tiers of
// the paper's §3.2 cluster: a shard's barrier closes once every seat has
// pushed, the federated coordinator's quorum at Quorum pushes. A member
// pushes once, naming the generation, which each tier keeps (the
// shard's is its variable version too). The sets are cleared, not
// remade, between rounds. The caller locks.
type Round struct {
	Members, Pushed map[uint32]bool
	Need            int // the pushes that close the round
}

// NewRound returns a round without members that closes at need pushes.
func NewRound(need int) Round {
	return Round{Members: map[uint32]bool{}, Pushed: map[uint32]bool{}, Need: need}
}

// Admit's refusals. ErrLate, a push that named another generation or
// came after the round closed, is the one a pusher recovers from: it
// drops the push, and its next counts. It travels as the shard's Evicted
// flag, in the shard's words (to a shard, a worker its barrier evicted
// is late too), and as the coordinator's Closed flag.
var (
	ErrLate      = errors.New("dist: worker evicted from the round barrier")
	ErrNotMember = errors.New("dist: push from outside the round")
	ErrTwice     = errors.New("dist: second push into one round")
)

// Admit checks a push from id naming generation gen, the round's being
// now, and changes nothing.
func (r *Round) Admit(id uint32, gen, now uint64) error {
	switch {
	case r.Closed() || gen != now:
		return ErrLate
	case !r.Members[id]:
		return ErrNotMember
	case r.Pushed[id]:
		return ErrTwice
	}
	return nil
}

// Push counts an admitted push from id and reports whether it closed
// the round.
func (r *Round) Push(id uint32) bool {
	r.Pushed[id] = true
	return r.Closed()
}

// Closed reports whether the round has its Need pushes.
func (r *Round) Closed() bool { return len(r.Pushed) >= r.Need }
