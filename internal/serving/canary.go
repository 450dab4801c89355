// The rollout layer of the serving control plane: weighted canary
// releases with an automatic verdict. StartCanary routes Percent% of
// unpinned traffic to a candidate version while the incumbent keeps the
// rest; after Window candidate responses the gateway compares the
// model's admission-rejection rate during the canary against its
// baseline, the candidate's p99 virtual latency against the incumbent's,
// and the two versions' error rates — then either promotes the candidate
// (atomic SetServing semantics: in-flight work keeps its resolved
// version) or rolls back to the incumbent. Pinned requests never
// participate. Canary-routed requests carry a fallback mark so a
// candidate withdrawn mid-flight degrades to the serving version instead
// of a NOT_FOUND.
package serving

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The canary verdict's rollback thresholds.
const (
	// MaxRejectDelta is the absolute delta that rolls a canary back:
	// when the model's admission-rejection fraction during the canary
	// exceeds its pre-canary baseline by more than it, or the
	// candidate's error fraction exceeds the incumbent's by more than it.
	MaxRejectDelta = 0.05
	// MaxP99Ratio rolls a canary back when the candidate's p99 virtual
	// latency exceeds this multiple of the incumbent's.
	MaxP99Ratio = 1.5
)

// CanaryConfig tunes one canary rollout.
type CanaryConfig struct {
	// Percent of unpinned traffic routed to the candidate, 1..99.
	Percent int
	// Window is how many candidate responses to observe before the
	// verdict (default 50).
	Window int
}

// Canary phases reported by CanaryState.Phase.
const (
	CanaryActive     = "active"
	CanaryPromoted   = "promoted"
	CanaryRolledBack = "rolled-back"
	CanaryAborted    = "aborted"
)

// CanaryState is a snapshot of a model's canary: the active rollout, or
// the latest verdict once decided.
type CanaryState struct {
	Model     string
	Phase     string // "", active, promoted, rolled-back, aborted
	Candidate int
	Incumbent int
	Percent   int
	Window    int
	// Observed is how many candidate responses have been scored (at
	// least Window once promoted or rolled back).
	Observed int64
	// Reason explains a rollback or abort; empty for promotions.
	Reason string
	// DecidedAt is the virtual time of the verdict (zero while active).
	DecidedAt time.Duration
}

// canaryRun is the live state of one rollout. Counters the verdict
// diffs against are snapshotted at start.
type canaryRun struct {
	cfg       CanaryConfig
	candidate int
	incumbent int

	startArrivals                    int64 // model arrivals at start
	startRejected                    int64
	startCandServed, startCandErrors int64
	startIncServed, startIncErrors   int64
	baseRejFrac                      float64 // model rejection fraction before the canary

	counter  atomic.Int64 // unpinned requests routed since start
	observed atomic.Int64 // candidate responses scored
	decided  atomic.Bool
}

// StartCanary begins routing cfg.Percent% of unpinned traffic for model
// to candidate. The current serving version is the incumbent; the
// verdict auto-promotes or rolls back after cfg.Window candidate
// responses. One canary per model at a time.
func (g *Gateway) StartCanary(model string, candidate int, cfg CanaryConfig) error {
	if cfg.Percent < 1 || cfg.Percent > 99 {
		return fmt.Errorf("serving: canary Percent %d outside [1, 99]", cfg.Percent)
	}
	if cfg.Window <= 0 {
		cfg.Window = 50
	}
	m := g.lookup(model)
	if m == nil {
		return fmt.Errorf("serving: unknown model %q", model)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	candV := m.versions[candidate]
	if candV == nil {
		return fmt.Errorf("serving: model %s has no version %d", model, candidate)
	}
	if candidate == m.serving {
		return fmt.Errorf("serving: model %s@%d is already the serving version", model, candidate)
	}
	if m.canary.Load() != nil {
		return fmt.Errorf("serving: model %s already has an active canary", model)
	}
	incV := m.versions[m.serving]
	if incV == nil {
		return fmt.Errorf("serving: model %s has no live serving version", model)
	}
	c := &canaryRun{
		cfg:             cfg,
		candidate:       candidate,
		incumbent:       m.serving,
		startArrivals:   m.arrivals.Load(),
		startRejected:   m.rejected.Load(),
		startCandServed: candV.served.Load(),
		startCandErrors: candV.errors.Load(),
		startIncServed:  incV.served.Load(),
		startIncErrors:  incV.errors.Load(),
	}
	if c.startArrivals > 0 {
		c.baseRejFrac = float64(c.startRejected) / float64(c.startArrivals)
	}
	m.canary.Store(c)
	return nil
}

// routeCanary picks the version for one unpinned request: the candidate
// for Percent% of traffic, evenly spread (Bresenham-style, so a 10%
// canary sends every 10th request rather than the first 10 of every
// 100), the serving version otherwise. The bool marks candidate-routed
// requests for fallback.
func (m *servedModel) routeCanary() (int, bool) {
	c := m.canary.Load()
	if c == nil || c.decided.Load() {
		return 0, false
	}
	n := c.counter.Add(1) - 1
	if (n*int64(c.cfg.Percent))%100 < int64(c.cfg.Percent) {
		return c.candidate, true
	}
	return 0, false
}

// canaryObserve scores completed candidate responses and triggers the
// verdict once the window is full. Called from the batch path with the
// version the batch actually ran on.
func (g *Gateway) canaryObserve(m *servedModel, version, n int) {
	c := m.canary.Load()
	if c == nil || c.decided.Load() {
		return
	}
	if version == c.candidate && c.observed.Add(int64(n)) >= int64(c.cfg.Window) {
		g.decideCanary(m, c)
	}
}

// decideCanary computes the verdict exactly once: rollback on elevated
// rejections, elevated candidate error rate, or a candidate p99 beyond
// MaxP99Ratio× the incumbent's — promotion otherwise.
func (g *Gateway) decideCanary(m *servedModel, c *canaryRun) {
	if !c.decided.CompareAndSwap(false, true) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	candV, incV := m.versions[c.candidate], m.versions[c.incumbent]

	phase, reason := CanaryPromoted, ""
	switch {
	case candV == nil:
		phase, reason = CanaryAborted, fmt.Sprintf("candidate version %d disappeared", c.candidate)
	case m.serving != c.incumbent:
		phase, reason = CanaryAborted, fmt.Sprintf("serving version moved to %d during the canary", m.serving)
	default:
		// Rejection pressure: the model's admission-rejection fraction
		// during the canary vs its pre-canary baseline.
		arr := m.arrivals.Load() - c.startArrivals
		rej := m.rejected.Load() - c.startRejected
		var rejFrac float64
		if arr > 0 {
			rejFrac = float64(rej) / float64(arr)
		}
		// Error rates per version during the canary.
		candErr := candV.errors.Load() - c.startCandErrors
		candTot := candV.served.Load() - c.startCandServed + candErr
		var candErrFrac float64
		if candTot > 0 {
			candErrFrac = float64(candErr) / float64(candTot)
		}
		var incErrFrac float64
		if incV != nil {
			incErr := incV.errors.Load() - c.startIncErrors
			if incTot := incV.served.Load() - c.startIncServed + incErr; incTot > 0 {
				incErrFrac = float64(incErr) / float64(incTot)
			}
		}
		candP99 := candV.lat.p99()
		var incP99 time.Duration
		if incV != nil {
			incP99 = incV.lat.p99()
		}
		switch {
		case rejFrac > c.baseRejFrac+MaxRejectDelta:
			phase = CanaryRolledBack
			reason = fmt.Sprintf("rejection rate %.1f%% exceeds baseline %.1f%% by more than %.1f%%",
				100*rejFrac, 100*c.baseRejFrac, 100*MaxRejectDelta)
		case candErrFrac > incErrFrac+MaxRejectDelta:
			phase = CanaryRolledBack
			reason = fmt.Sprintf("candidate error rate %.1f%% exceeds incumbent %.1f%%",
				100*candErrFrac, 100*incErrFrac)
		case incP99 > 0 && float64(candP99) > MaxP99Ratio*float64(incP99):
			phase = CanaryRolledBack
			reason = fmt.Sprintf("candidate p99 %v exceeds %.2fx incumbent p99 %v",
				candP99, MaxP99Ratio, incP99)
		default:
			m.serving = c.candidate
		}
	}
	m.lastRun = CanaryState{
		Model:     m.name,
		Phase:     phase,
		Candidate: c.candidate,
		Incumbent: c.incumbent,
		Percent:   c.cfg.Percent,
		Window:    c.cfg.Window,
		Observed:  c.observed.Load(),
		Reason:    reason,
		DecidedAt: g.clock.Now(),
	}
	m.canary.Store(nil)
}

// abortCanaryLocked ends an active canary without a promote/rollback
// verdict (an operator SetServing preempted it). m.mu held.
func (m *servedModel) abortCanaryLocked(c *canaryRun, reason string) {
	if !c.decided.CompareAndSwap(false, true) {
		return
	}
	m.lastRun = CanaryState{
		Model:     m.name,
		Phase:     CanaryAborted,
		Candidate: c.candidate,
		Incumbent: c.incumbent,
		Percent:   c.cfg.Percent,
		Window:    c.cfg.Window,
		Observed:  c.observed.Load(),
		Reason:    reason,
	}
	m.canary.Store(nil)
}

// Canary reports a model's canary state: the live rollout when one is
// active, otherwise the latest decided verdict (zero Phase when the
// model has never run one, or is unknown).
func (g *Gateway) Canary(model string) CanaryState {
	m := g.lookup(model)
	if m == nil {
		return CanaryState{}
	}
	if c := m.canary.Load(); c != nil && !c.decided.Load() {
		return CanaryState{
			Model:     m.name,
			Phase:     CanaryActive,
			Candidate: c.candidate,
			Incumbent: c.incumbent,
			Percent:   c.cfg.Percent,
			Window:    c.cfg.Window,
			Observed:  c.observed.Load(),
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastRun
}
