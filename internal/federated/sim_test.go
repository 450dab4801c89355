package federated

import (
	"strings"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/vtime"
)

// TestTurnstileRefusesAMovedClock: a participant whose clock moves while
// it waits — work that was promised to charge nothing charged something
// — is refused its turn with a panic that names it.
func TestTurnstileRefusesAMovedClock(t *testing.T) {
	var clock vtime.Clock
	tr := NewTurnstile().join(1, &clock)
	tr.request()
	clock.Advance(time.Millisecond)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "client 1 ") {
			t.Fatalf("a clock that moved while its client waited was granted a turn (panic %q)", msg)
		}
	}()
	tr.wait()
}
