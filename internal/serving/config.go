package serving

import (
	"fmt"
	"sync"
)

// The config layer of the serving control plane: every model runs with
// the gateway's Config, except for one knob an operator may move per
// model while it serves — the admission-queue bound. Admission reads it
// on every request, so SetQueueCap applies to the next one.

// Hard ceilings for live-tunable quantities. The admission queue channel
// is allocated once at maxQueueCap so QueueCap can be raised and lowered
// live without swapping channels under concurrent producers; the slot
// semaphore is likewise allocated at maxReplicas.
const (
	maxQueueCap = 1 << 16
	maxReplicas = 64
)

// queueCaps holds the per-model admission bounds SetQueueCap installed
// over the gateway's Config.QueueCap.
type queueCaps struct {
	mu    sync.RWMutex
	base  int
	model map[string]int
}

// of returns model's live admission bound.
func (q *queueCaps) of(model string) int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if n, ok := q.model[model]; ok {
		return n
	}
	return q.base
}

// SetQueueCap moves model's admission-queue bound live: the next request
// is admitted against n, and 0 restores the gateway's Config.QueueCap.
// The model does not need to be registered yet — a bound set first
// applies when it arrives.
func (g *Gateway) SetQueueCap(model string, n int) error {
	if model == "" || len(model) > maxModelName {
		return fmt.Errorf("serving: invalid model name %q", model)
	}
	if n < 0 || n > maxQueueCap {
		return fmt.Errorf("serving: QueueCap %d outside [0, %d]", n, maxQueueCap)
	}
	g.caps.mu.Lock()
	defer g.caps.mu.Unlock()
	if n == 0 {
		delete(g.caps.model, model)
	} else {
		g.caps.model[model] = n
	}
	return nil
}

// QueueCap reports model's live admission-queue bound.
func (g *Gateway) QueueCap(model string) int { return g.caps.of(model) }
