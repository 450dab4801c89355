package vtime

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// woken fails unless want, and only want, has a wake pending (want nil:
// none has).
func woken(t *testing.T, s *Scheduler, step string, want *Actor) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.actors {
		if got := len(a.wake) == 1; got != (a == want) {
			t.Fatalf("after %s: actor %d woken=%v, want it %v", step, a.id, got, !got)
		}
	}
}

// TestSchedulerOrdersByTime: a turn is ordered by the time it was asked
// at, not by who waits first, and an actor that did not ask again after
// its turn blocks the others until it leaves.
func TestSchedulerOrdersByTime(t *testing.T) {
	s := new(Scheduler)
	late, early := s.Join(0), s.Join(1)
	late.Ask(time.Second)
	early.Ask(0)
	// Actor 0 asked at 1s, actor 1 at 0: actor 1 goes first, and actor 0
	// only once actor 1 has left.
	granted := make(chan int, 2)
	go func() { late.Wait(); late.Done(); granted <- 0 }()
	early.Wait()
	early.Done()
	granted <- 1
	early.Leave()
	if first, second := <-granted, <-granted; first != 1 || second != 0 {
		t.Fatalf("granted actor %d then %d, want 1 then 0", first, second)
	}
}

// TestSchedulerWakesOnlyTheNextHolder: with 64 actors, each ask, end of
// a turn and Leave wakes at most one of them — the holder the turn
// passes to, the minimum (time, id) of a roster in which every actor
// has asked — and none while an actor has not asked or a turn runs.
// Then 64 goroutines park in Wait and take turns at times that tie and
// interleave, and the grants come in exactly the order a priority queue
// over (time, id) gives.
func TestSchedulerWakesOnlyTheNextHolder(t *testing.T) {
	const n, turns = 64, 6
	// An actor's k-th ask is at at(id, k): few distinct times, so ties
	// are common and the id breaks them.
	at := func(id, k int) time.Duration { return time.Duration(k*11+(id*5+k*3)%11) * time.Millisecond }

	s := new(Scheduler)
	actors := make([]*Actor, n)
	for id := range n {
		actors[id] = s.Join(uint64(id))
	}
	signalled := func(step string, want int) {
		t.Helper()
		var a *Actor
		if want >= 0 {
			a = actors[want]
		}
		woken(t, s, step, a)
	}
	// first is the reference: the (time, id) minimum of the asks.
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
		actors[id].Ask(at(id, 0))
		asked[id] = at(id, 0)
		if id > 0 {
			signalled(fmt.Sprintf("ask %d of %d", n-id, n), -1)
		}
	}
	signalled("the last ask", first(asked))
	for k := 1; len(asked) > 0; k++ {
		holder := first(asked)
		actors[holder].Wait()
		delete(asked, holder)
		signalled("a grant", -1)
		if k%5 == 0 { // the holder asks again while it holds the turn
			actors[holder].Ask(at(holder, k))
			asked[holder] = at(holder, k)
			signalled("an ask under a running turn", -1)
			actors[holder].Done()
			signalled("the end of a turn", first(asked))
			continue
		}
		actors[holder].Done()
		signalled("a turn's end that leaves an actor that has not asked", -1)
		actors[holder].Leave()
		signalled(fmt.Sprintf("actor %d leaving", holder), first(asked))
	}

	// The same roster parked: each actor asks at at(id, 0), at(id, 1), …
	s = new(Scheduler)
	for id := range n {
		actors[id] = s.Join(uint64(id))
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
			defer actors[id].Leave()
			for k := range turns {
				actors[id].Ask(at(id, k))
				actors[id].Wait()
				got = append(got, grant{id, at(id, k)}) // under the turn
				actors[id].Done()
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
			t.Fatalf("grant %d: got %v, want actor %d at %v", i, got[min(i, len(got)-1)], want, asked[want])
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

// TestIdleActorBlocksOnlyLaterWaiters: an idle actor's declared time
// holds back the waiters after it in (time, id), and only those.
func TestIdleActorBlocksOnlyLaterWaiters(t *testing.T) {
	s := new(Scheduler)
	early, idler, late := s.Join(0), s.Join(1), s.Join(2)
	idler.Idle(10 * time.Millisecond)
	late.Park()
	early.Ask(5 * time.Millisecond)
	woken(t, s, "an ask before the idle actor's time", early)
	early.Wait()
	early.Ask(10 * time.Millisecond) // ties the idle actor's time, with a smaller id
	early.Done()
	woken(t, s, "an ask at the idle actor's time, by a smaller id", early)
	early.Wait()
	early.Park()
	late.Ask(10 * time.Millisecond) // ties it with a larger id
	woken(t, s, "an ask at the idle actor's time, by a larger id", nil)
	idler.Ask(12 * time.Millisecond)
	woken(t, s, "the idle actor asking", late)
}

// TestParkedActorBlocksNoOne: an actor parked at a barrier, whether it
// parked in its turn or not, holds back no waiter, however early.
func TestParkedActorBlocksNoOne(t *testing.T) {
	s := new(Scheduler)
	parker, waiter := s.Join(0), s.Join(1)
	waiter.Park()
	parker.Ask(0)
	parker.Wait()
	waiter.Ask(time.Hour)
	woken(t, s, "an ask under a running turn", nil)
	parker.Park()
	woken(t, s, "the running actor parking", waiter)
	waiter.Wait()
	waiter.Ask(2 * time.Hour)
	waiter.Done()
	woken(t, s, "a turn's end beside a parked actor", waiter)
}

// TestAnytimeWaitsOnlyForTheRunningTurn: an ask at Anytime, a frame
// from a connection without a seat, waits for the turn that runs, and
// for no idle actor's declared time.
func TestAnytimeWaitsOnlyForTheRunningTurn(t *testing.T) {
	s := new(Scheduler)
	seat, runner, stranger := s.Join(1<<32|1), s.Join(2<<32|2), s.Join(3)
	stranger.Park()
	seat.Idle(time.Millisecond)
	runner.Ask(0)
	runner.Wait()
	stranger.Ask(Anytime)
	woken(t, s, "an ask at Anytime under a running turn", nil)
	runner.Idle(time.Second)
	woken(t, s, "the end of the running turn", stranger)
	stranger.Wait()
	stranger.Park()
	runner.Ask(time.Second)
	woken(t, s, "an ask after the idle seat's time", nil)
}

// TestHoldersAreWhatTheTurnWaitsOn: the running actor holds the next
// turn; with none running, the idle actors before the earliest waiter
// do, and Move moves an idle or waiting actor without waking it.
func TestHoldersAreWhatTheTurnWaitsOn(t *testing.T) {
	s := new(Scheduler)
	runner, early, late, waiter := s.Join(0), s.Join(1), s.Join(2), s.Join(3)
	early.Idle(time.Millisecond)
	late.Idle(time.Hour)
	waiter.Park()
	runner.Ask(0)
	runner.Wait()
	if got := s.Holders(); len(got) != 1 || got[0] != runner {
		t.Fatalf("under a running turn, holders %v, want the runner", got)
	}
	runner.Park()
	if got := s.Holders(); len(got) != 0 {
		t.Fatalf("with no waiter, holders %v, want none", got)
	}
	waiter.Ask(time.Second)
	if got := s.Holders(); len(got) != 1 || got[0] != early {
		t.Fatalf("holders %v, want the idle actor before the waiter", got)
	}
	late.Move(time.Millisecond / 2)
	early.Move(2 * time.Hour)
	woken(t, s, "moving idle actors", nil)
	if got := s.Holders(); len(got) != 1 || got[0] != late {
		t.Fatalf("after the moves, holders %v, want the one moved before the waiter", got)
	}
	waiter.Move(time.Millisecond / 4)
	woken(t, s, "moving the waiter before every idle actor", waiter)
	if got := s.Holders(); len(got) != 0 {
		t.Fatalf("with the turn granted, holders %v, want none", got)
	}
	runner.Move(0) // parked: stays parked
	waiter.Wait()
	waiter.Park()
	if got := s.Holders(); len(got) != 0 {
		t.Fatalf("with no waiter and a parked runner, holders %v, want none", got)
	}
}

// TestCloseGrantsEveryWaiter: Close wakes every actor and grants every
// turn asked for at once, whether a turn runs, an idle actor holds it
// back or it waits behind another, and every turn asked for after it.
func TestCloseGrantsEveryWaiter(t *testing.T) {
	s := new(Scheduler)
	runner := s.Join(0)
	runner.Ask(0)
	runner.Wait()
	blocker := s.Join(1)
	waiters := make([]*Actor, 4)
	for i := range waiters {
		waiters[i] = s.Join(uint64(2 + i))
		waiters[i].Ask(time.Duration(i) * time.Millisecond)
	}
	woken(t, s, "asks behind a running turn and an idle actor", nil)
	s.Close()
	for _, a := range s.actors {
		if len(a.wake) != 1 {
			t.Fatalf("Close left actor %d asleep", a.id)
		}
	}
	for _, a := range waiters {
		a.Wait()
	}
	blocker.Ask(0)
	blocker.Wait()
}

// TestUncontendedTurnAllocation: an actor that is next asks, is granted
// and ends its turn without allocating.
func TestUncontendedTurnAllocation(t *testing.T) {
	s := new(Scheduler)
	a := s.Join(1)
	s.Join(2).Park()
	if n := testing.AllocsPerRun(100, func() {
		a.Ask(time.Millisecond)
		a.Wait()
		a.Done()
	}); n != 0 {
		t.Fatalf("an uncontended turn allocated %v times, want 0", n)
	}
}
