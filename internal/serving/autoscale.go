// The autoscaler layer of the serving control plane: replica counts
// become live quantities driven by the metrics the gateway already
// exports — queue depth and admission rejections for pressure, arrival
// deltas for idleness. Everything runs on virtual-time ticks: an
// evaluation pass fires when the platform clock has advanced one
// AutoscaleTick past the previous pass, triggered from the request path
// itself (admission and batch completion), so for a given workload the
// scaling trajectory is deterministic — no wall-clock timers, reproducible in
// tests and benches. A fully idle gateway does not tick (virtual time
// only advances with work); TickAutoscale forces a pass for harnesses
// that want one.
package serving

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The autoscaler's fixed policy. A model's replica floor while it has
// traffic is one; it reaches zero only through idleness.
const (
	// ScaleUpFrac is the queue-depth fraction of the model's QueueCap
	// that counts as pressure. Any admission rejection in a tick counts
	// as pressure regardless of depth.
	ScaleUpFrac = 0.5
	// AutoscaleTick is the virtual-time cadence between evaluation
	// passes.
	AutoscaleTick = 20 * time.Millisecond
	// SustainTicks is how many consecutive pressure (or drained) ticks
	// must accumulate before scaling up (or down) — sustained signal,
	// not a single spike.
	SustainTicks = 2
	// IdleTicks is how many consecutive zero-traffic ticks before a
	// model scales to zero and its interpreter pools are evicted,
	// releasing their enclave weight residency; the pools repopulate
	// lazily on the next request.
	IdleTicks = 3
)

// AutoscaleConfig tunes the gateway's replica autoscaler.
type AutoscaleConfig struct {
	// MaxReplicas caps scale-up (default 8).
	MaxReplicas int
}

// withDefaults fills unset autoscaler knobs.
func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.MaxReplicas < 1 {
		c.MaxReplicas = 8
	}
	return c
}

// validate rejects autoscaler configs beyond the slot ceiling.
func (c AutoscaleConfig) validate() error {
	if d := c.withDefaults(); d.MaxReplicas > maxReplicas {
		return fmt.Errorf("serving: autoscale MaxReplicas %d exceeds the %d ceiling", d.MaxReplicas, maxReplicas)
	}
	return nil
}

// autoscaler is the gateway-wide tick state.
type autoscaler struct {
	cfg      AutoscaleConfig
	mu       sync.Mutex
	lastTick time.Duration
}

func newAutoscaler(cfg AutoscaleConfig, now time.Duration) *autoscaler {
	return &autoscaler{cfg: cfg.withDefaults(), lastTick: now}
}

// scaleState is one model's autoscaler memory, guarded by the model
// mutex.
type scaleState struct {
	replicas     int // current target; 0 = scaled to zero, pools evicted
	pressure     int // consecutive pressure ticks
	drained      int // consecutive empty-queue ticks under traffic
	idle         int // consecutive zero-traffic ticks
	lastArrivals int64
	lastRejected int64
}

// maybeTick runs an autoscaler evaluation pass when at least one
// AutoscaleTick of virtual time has elapsed since the previous pass. It
// is called from the request path (admission, batch completion), so
// ticks advance exactly as fast as the workload charges the clock.
func (g *Gateway) maybeTick() {
	a := g.scaler
	if a == nil {
		return
	}
	now := g.clock.Now()
	a.mu.Lock()
	if now-a.lastTick < AutoscaleTick {
		a.mu.Unlock()
		return
	}
	a.lastTick = now
	a.mu.Unlock()
	g.tickAll()
}

// TickAutoscale forces one autoscaler evaluation pass immediately,
// regardless of elapsed virtual time. It reports whether autoscaling is
// enabled. Harnesses use it to evaluate idleness when no traffic is
// advancing the clock.
func (g *Gateway) TickAutoscale() bool {
	a := g.scaler
	if a == nil {
		return false
	}
	a.mu.Lock()
	a.lastTick = g.clock.Now()
	a.mu.Unlock()
	g.tickAll()
	return true
}

// tickAll evaluates every registered model, in sorted order for
// deterministic resize sequencing.
func (g *Gateway) tickAll() {
	g.reg.mu.Lock()
	names := make([]string, 0, len(g.reg.models))
	for name := range g.reg.models {
		names = append(names, name)
	}
	sort.Strings(names)
	models := make([]*servedModel, 0, len(names))
	for _, name := range names {
		models = append(models, g.reg.models[name])
	}
	g.reg.mu.Unlock()
	for _, m := range models {
		g.evaluateModel(m)
	}
}

// evaluateModel applies one autoscaler tick to one model: scale up under
// sustained queue pressure or rejections, scale down one step when the
// queue stays drained, scale to zero — evicting the interpreter pools —
// after sustained idleness.
func (g *Gateway) evaluateModel(m *servedModel) {
	cfg := g.scaler.cfg
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &m.scale
	arr, rej := m.arrivals.Load(), m.rejected.Load()
	dArr, dRej := arr-st.lastArrivals, rej-st.lastRejected
	st.lastArrivals, st.lastRejected = arr, rej
	depth := int(m.pending.Load())

	// A parked model that saw traffic anyway (the wake fast path lost a
	// race, or a pinned request trickled in) is restored to one replica so
	// it stops paying per-batch lazy pool churn.
	if st.replicas == 0 && dArr > 0 {
		g.setReplicasLocked(m, 1)
		st.idle = 0
		return
	}

	queueCap := g.caps.of(m.name)
	switch {
	case dArr == 0 && depth == 0:
		st.pressure, st.drained = 0, 0
		st.idle++
		if st.idle >= IdleTicks && st.replicas > 0 {
			g.setReplicasLocked(m, 0)
		}
	case dRej > 0 || float64(depth) >= ScaleUpFrac*float64(queueCap):
		st.idle, st.drained = 0, 0
		st.pressure++
		if st.pressure >= SustainTicks && st.replicas < cfg.MaxReplicas {
			g.setReplicasLocked(m, min(max(st.replicas*2, 1), cfg.MaxReplicas))
			st.pressure = 0
		}
	default:
		st.idle, st.pressure = 0, 0
		if depth == 0 {
			st.drained++
			if st.drained >= SustainTicks && st.replicas > 1 {
				g.setReplicasLocked(m, st.replicas-1)
				st.drained = 0
			}
		} else {
			st.drained = 0
		}
	}
}

// setReplicasLocked moves a model's live replica target to n — the one
// writer of it, from registration, the autoscaler and wake: the slot
// semaphore (floored at one so the dispatcher always progresses) and
// every version's pool. n = 0 parks the model: pools evict as their
// batches drain and repopulate lazily on the next request. m.mu held.
func (g *Gateway) setReplicasLocked(m *servedModel, n int) {
	m.scale.replicas = n
	m.parked.Store(n == 0)
	slots := n
	if slots < 1 {
		slots = 1
	}
	m.setSlotLimitLocked(slots)
	for _, v := range m.versions {
		v.pool.resize(n)
	}
}

// wake restores a parked (scaled-to-zero) model to one replica the
// moment a request is admitted for it — the lazy-repopulation half of
// scale-to-zero. Cheap no-op for unparked models.
func (g *Gateway) wake(m *servedModel) {
	if g.scaler == nil || !m.parked.Load() {
		return
	}
	m.mu.Lock()
	if m.scale.replicas == 0 {
		g.setReplicasLocked(m, 1)
		m.scale.idle = 0
	}
	m.mu.Unlock()
}

// AutoscaleReplicas reports the autoscaler's current replica target for
// a model (-1 if the model is unknown or autoscaling is off). 0 means
// the model is scaled to zero with its pools evicted.
func (g *Gateway) AutoscaleReplicas(name string) int {
	if g.scaler == nil {
		return -1
	}
	m := g.lookup(name)
	if m == nil {
		return -1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scale.replicas
}
