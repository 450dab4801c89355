// Router observability: per-node health counters and per-request graph
// traces with per-step virtual-time attribution.
package router

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// traceRingCap bounds the retained traces per graph.
const traceRingCap = 64

// StepTrace is one executed graph step: which model ran, on which
// fleet node, and the virtual service time the node charged it. Err is
// set when the step failed (the node may be empty if no node could
// serve it).
type StepTrace struct {
	Step  string
	Model string
	Node  string
	Vtime time.Duration
	Err   string
}

// GraphTrace is one graph execution: every step that ran, in completion
// order, and the graph's total virtual service time (Sequence steps
// sum; Ensemble branches contribute their max).
type GraphTrace struct {
	Graph string
	Steps []StepTrace
	Total time.Duration
	Err   string // set when the execution failed
}

// stepAgg accumulates per-step totals across executions.
type stepAgg struct {
	count  int64
	errors int64
	vtime  time.Duration
}

// graphStats is the per-graph slot of the trace store: a bounded ring
// of recent traces plus cumulative per-step aggregates. The ring's
// slots, and room for the first trace's steps in each, are allocated at
// the first record; a trace is copied in, so the executions that record
// them reuse their own step records.
type graphStats struct {
	ring     []GraphTrace // traceRingCap slots; record i is in slot i % traceRingCap
	requests int64        // records so far
	errors   int64
	steps    map[string]*stepAgg
	order    []string // step first-seen order
}

// traceStore retains graph execution traces.
type traceStore struct {
	mu     sync.Mutex
	graphs map[string]*graphStats
}

// record files one completed execution.
func (ts *traceStore) record(t GraphTrace) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.graphs == nil {
		ts.graphs = make(map[string]*graphStats)
	}
	gs := ts.graphs[t.Graph]
	if gs == nil {
		gs = &graphStats{steps: make(map[string]*stepAgg)}
		ts.graphs[t.Graph] = gs
	}
	if gs.ring == nil {
		gs.ring = make([]GraphTrace, traceRingCap)
		steps := make([]StepTrace, traceRingCap*len(t.Steps))
		for i := range gs.ring {
			gs.ring[i].Steps = steps[i*len(t.Steps) : i*len(t.Steps) : (i+1)*len(t.Steps)]
		}
	}
	slot := &gs.ring[gs.requests%traceRingCap]
	slot.Graph, slot.Total, slot.Err = t.Graph, t.Total, t.Err
	slot.Steps = append(slot.Steps[:0], t.Steps...)
	gs.requests++
	if t.Err != "" {
		gs.errors++
	}
	for _, st := range t.Steps {
		agg := gs.steps[st.Step]
		if agg == nil {
			agg = &stepAgg{}
			gs.steps[st.Step] = agg
			gs.order = append(gs.order, st.Step)
		}
		agg.count++
		agg.vtime += st.Vtime
		if st.Err != "" {
			agg.errors++
		}
	}
}

// traces snapshots the retained ring for one graph, oldest first.
func (ts *traceStore) traces(graph string) []GraphTrace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	gs := ts.graphs[graph]
	if gs == nil {
		return nil
	}
	n := min(gs.requests, traceRingCap)
	out := make([]GraphTrace, n)
	for i := range out {
		out[i] = gs.ring[(gs.requests-n+int64(i))%traceRingCap]
		out[i].Steps = slices.Clone(out[i].Steps)
	}
	return out
}

// NodeMetrics is a snapshot of one fleet node's health as the router
// sees it.
type NodeMetrics struct {
	Name string
	Addr string
	// Dead marks a node removed from the spread (awaiting a probe).
	Dead bool
	// Weight is the node's current spread weight, 1..100.
	Weight int64
	// Requests counts completed forwards; Rejections and Errors the
	// subset answered StatusOverloaded / StatusInternal; Failovers how
	// often a request abandoned this node for another.
	Requests   int64
	Rejections int64
	Errors     int64
	Failovers  int64
}

// StepMetrics is the cumulative cost of one graph step across
// executions.
type StepMetrics struct {
	Step   string
	Count  int64
	Errors int64
	// Vtime is the total virtual service time charged to this step; the
	// per-execution mean is Vtime/Count.
	Vtime time.Duration
}

// GraphMetrics is the cumulative view of one graph.
type GraphMetrics struct {
	Graph    string
	Requests int64
	Errors   int64
	Steps    []StepMetrics // in first-seen execution order
}

// Metrics is the router's observable state.
type Metrics struct {
	// Requests counts requests routed (including graph executions);
	// Failovers counts node fail-overs across all forwards.
	Requests  int64
	Failovers int64
	Nodes     []NodeMetrics
	Graphs    []GraphMetrics // sorted by graph name
}

// Metrics snapshots the router's node health and graph aggregates.
func (r *Router) Metrics() Metrics {
	var m Metrics
	for _, n := range r.nodes {
		nm := NodeMetrics{
			Name:       n.spec.Name,
			Addr:       n.spec.Addr,
			Dead:       n.dead.Load(),
			Weight:     n.weight.Load(),
			Requests:   n.requests.Load(),
			Rejections: n.rejections.Load(),
			Errors:     n.errors.Load(),
			Failovers:  n.failovers.Load(),
		}
		m.Requests += nm.Requests
		m.Failovers += nm.Failovers
		m.Nodes = append(m.Nodes, nm)
	}
	r.traces.mu.Lock()
	names := make([]string, 0, len(r.traces.graphs))
	for name := range r.traces.graphs {
		names = append(names, name)
	}
	r.traces.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		m.Graphs = append(m.Graphs, r.graphMetrics(name))
	}
	return m
}

// graphMetrics snapshots one graph's aggregates.
func (r *Router) graphMetrics(graph string) GraphMetrics {
	r.traces.mu.Lock()
	defer r.traces.mu.Unlock()
	gs := r.traces.graphs[graph]
	gm := GraphMetrics{Graph: graph}
	if gs == nil {
		return gm
	}
	gm.Requests, gm.Errors = gs.requests, gs.errors
	for _, step := range gs.order {
		agg := gs.steps[step]
		gm.Steps = append(gm.Steps, StepMetrics{
			Step: step, Count: agg.count, Errors: agg.errors, Vtime: agg.vtime,
		})
	}
	return gm
}

// Traces returns the retained executions of one graph, oldest first —
// each with its per-step node assignment and virtual-time attribution.
func (r *Router) Traces(graph string) []GraphTrace {
	return r.traces.traces(graph)
}
