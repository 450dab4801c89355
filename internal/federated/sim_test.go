package federated

import (
	"strings"
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
