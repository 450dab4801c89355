package federated

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/vtime"
)

// TestTurnstileOrdersByRequestClock: a turn is ordered by the clock its
// participant had when it asked, and a participant whose clock moves
// while it waits — work that was promised to charge nothing charged
// something — is refused its turn with a panic that names it.
func TestTurnstileOrdersByRequestClock(t *testing.T) {
	ts := NewTurnstile()
	var early, late vtime.Clock
	late.Advance(time.Second)
	ts.Join(0, &late)
	ts.Join(1, &early)
	ts.request(0)
	ts.request(1)
	// Client 0 asked at 1s, client 1 at 0: client 1 goes first, and
	// client 0 only once client 1 has left.
	granted := make(chan int, 2)
	go func() { ts.wait(0)(); granted <- 0 }()
	ts.wait(1)()
	granted <- 1
	ts.Leave(1)
	if first, second := <-granted, <-granted; first != 1 || second != 0 {
		t.Fatalf("granted client %d then %d, want 1 then 0", first, second)
	}

	ts = NewTurnstile()
	ts.Join(1, &early)
	ts.request(1)
	early.Advance(time.Millisecond)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "client 1 ") {
			t.Fatalf("a clock that moved while its client waited was granted a turn (panic %q)", msg)
		}
	}()
	ts.wait(1)
}

// TestTurnstileWakesOnlyTheNextHolder: with 64 participants, each
// request, release and Leave signals at most one of them — the holder
// the turn passes to, the minimum (clock, id) of the complete roster —
// and none while the roster is incomplete or a turn runs. Then 64
// goroutines park in wait and take turns at clocks that tie and
// interleave, and the grants come in exactly the order a priority queue
// over (clock, id) gives.
func TestTurnstileWakesOnlyTheNextHolder(t *testing.T) {
	const n, turns = 64, 6
	// A participant's k-th request is at at(id, k): few distinct clocks,
	// so ties are common and the id breaks them.
	at := func(id, k int) time.Duration { return time.Duration(k*11+(id*5+k*3)%11) * time.Millisecond }

	ts := NewTurnstile()
	clocks := make([]vtime.Clock, n)
	for id := range n {
		ts.Join(id, &clocks[id])
	}
	signalled := func(step string, want int) {
		t.Helper()
		for id, m := range ts.members {
			if got := len(m.wake) == 1; got != (id == want) {
				t.Fatalf("after %s: participant %d signalled=%v, want only %d", step, id, got, want)
			}
		}
	}
	// first is the reference: the (clock, id) minimum of the requests.
	first := func(asked map[int]time.Duration) int {
		next := -1
		for id, a := range asked {
			if next < 0 || a < asked[next] || a == asked[next] && id < next {
				next = id
			}
		}
		return next
	}
	asked := map[int]time.Duration{}
	for id := n - 1; id >= 0; id-- {
		clocks[id].AdvanceTo(at(id, 0))
		ts.request(id)
		asked[id] = at(id, 0)
		if id > 0 {
			signalled(fmt.Sprintf("request %d of %d", n-id, n), -1)
		}
	}
	signalled("the last request", first(asked))
	for k := 1; len(asked) > 0; k++ {
		holder := first(asked)
		release := ts.wait(holder)
		delete(asked, holder)
		signalled("a grant", -1)
		if k%5 == 0 { // the holder asks again while it holds the turn
			clocks[holder].AdvanceTo(at(holder, k))
			ts.request(holder)
			asked[holder] = at(holder, k)
			signalled("a request under a running turn", -1)
			release()
			signalled("a release", first(asked))
			continue
		}
		release()
		signalled("a release that leaves the roster incomplete", -1)
		ts.Leave(holder)
		signalled(fmt.Sprintf("participant %d leaving", holder), first(asked))
	}

	// The same roster parked: each participant takes turns requests at
	// at(id, 0), at(id, 1), …, moving its clock inside each turn.
	ts = NewTurnstile()
	clocks = make([]vtime.Clock, n)
	for id := range n {
		ts.Join(id, &clocks[id])
	}
	type grant struct {
		id int
		at time.Duration
	}
	var got []grant
	var wg sync.WaitGroup
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ts.Leave(id)
			for k := range turns {
				clocks[id].AdvanceTo(at(id, k))
				ts.request(id)
				release := ts.wait(id)
				got = append(got, grant{id, clocks[id].Now()}) // under the turn
				release()
			}
		}()
	}
	wg.Wait()
	for id := range n {
		asked[id] = at(id, 0)
	}
	made := make([]int, n)
	for i := 0; len(asked) > 0; i++ {
		want := first(asked)
		if i >= len(got) || got[i] != (grant{want, asked[want]}) {
			t.Fatalf("grant %d: got %v, want participant %d at %v", i, got[min(i, len(got)-1)], want, asked[want])
		}
		delete(asked, want)
		if made[want]++; made[want] < turns {
			asked[want] = at(want, made[want])
		}
	}
	if len(got) != n*turns {
		t.Fatalf("%d grants, want %d", len(got), n*turns)
	}
}
