package tf

import (
	"fmt"
	"math/rand"

	"github.com/securetf/securetf/internal/device"
)

// Session executes graphs and owns the mutable state: variable values and
// optimizer slots. It mirrors the TF1 session model the paper's system
// wraps.
//
// A Session is not safe for concurrent Run calls, matching tf.Session's
// per-step usage in the distributed workers.
type Session struct {
	graph  *Graph
	device device.Device
	vars   map[string]*Tensor
	slots  map[string]*Tensor
	steps  map[string]int64
	rng    *rand.Rand

	arenaPeak int64
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithDevice sets the device charged for the session's work. Defaults to
// a no-cost null device.
func WithDevice(dev device.Device) SessionOption {
	return func(s *Session) { s.device = dev }
}

// WithSeed seeds the session RNG (dropout masks). Defaults to 1.
func WithSeed(seed int64) SessionOption {
	return func(s *Session) { s.rng = rand.New(rand.NewSource(seed)) }
}

// NewSession creates a session over g, initializing all variables from
// their declared initial values.
func NewSession(g *Graph, opts ...SessionOption) *Session {
	s := &Session{
		graph: g,
		vars:  make(map[string]*Tensor),
		slots: make(map[string]*Tensor),
		steps: make(map[string]int64),
		rng:   rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(s)
	}
	if s.device == nil {
		s.device = device.NewNull()
	}
	var varBytes int64
	for _, v := range g.Variables() {
		init := v.attrTensor("initial")
		s.vars[v.name] = init.Clone()
		varBytes += init.Bytes()
	}
	// Register variable storage with the device so enclave residency
	// reflects model size.
	s.device.Alloc("tf/variables", varBytes)
	return s
}

// Graph returns the session's graph.
func (s *Session) Graph() *Graph { return s.graph }

// Device returns the session's device.
func (s *Session) Device() device.Device { return s.device }

// Close releases the session's device registrations.
func (s *Session) Close() {
	s.device.Free("tf/variables")
	s.device.Free("tf/arena")
}

// Feeds maps placeholder nodes to their input tensors for one Run.
type Feeds map[*Node]*Tensor

// RunOption configures one Run call.
type RunOption func(*runConfig)

type runConfig struct {
	training bool
}

// Training enables training behaviour (dropout active) for the run.
func Training() RunOption {
	return func(c *runConfig) { c.training = true }
}

// Run evaluates fetches under the given feeds and returns their values in
// order. Side-effecting nodes (optimizer applies, groups) are included as
// ordinary fetches.
func (s *Session) Run(feeds Feeds, fetches []*Node, opts ...RunOption) ([]*Tensor, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	order, err := topoSort(fetches)
	if err != nil {
		return nil, err
	}
	ctx := &execCtx{
		sess:     s,
		training: cfg.training,
		values:   make(map[*Node]*Tensor, len(order)),
		extras:   make(map[string]any),
	}
	for node, t := range feeds {
		if node == nil || t == nil {
			return nil, fmt.Errorf("tf: nil feed")
		}
		ctx.values[node] = t
	}

	var arena int64
	for _, n := range order {
		if _, done := ctx.values[n]; done {
			continue
		}
		out, err := s.evalNode(ctx, n)
		if err != nil {
			return nil, fmt.Errorf("tf: evaluating %q (%s): %w", n.name, n.op, err)
		}
		ctx.values[n] = out
		arena += out.Bytes()
	}
	if arena > s.arenaPeak {
		s.arenaPeak = arena
		// Activation arena registered against the device: training's
		// large intermediate state is what pressures the EPC (§7.1).
		s.device.Alloc("tf/arena", arena)
	}

	results := make([]*Tensor, len(fetches))
	for i, f := range fetches {
		results[i] = ctx.values[f]
	}
	return results, nil
}

func (s *Session) evalNode(ctx *execCtx, n *Node) (*Tensor, error) {
	switch n.op {
	case OpPlaceholder:
		return nil, fmt.Errorf("placeholder not fed")
	case OpConst:
		return n.attrTensor("value"), nil
	case OpVariable:
		v, ok := s.vars[n.name]
		if !ok {
			return nil, fmt.Errorf("variable not initialized")
		}
		return v, nil
	}
	kernel, ok := opKernels[n.op]
	if !ok {
		return nil, fmt.Errorf("no kernel for op %s", n.op)
	}
	in := make([]*Tensor, len(n.inputs))
	for i, input := range n.inputs {
		v, ok := ctx.values[input]
		if !ok {
			return nil, fmt.Errorf("input %q not evaluated", input.name)
		}
		in[i] = v
	}
	return kernel(ctx, n, in)
}

// Variable returns a copy of the current value of the named variable.
func (s *Session) Variable(name string) (*Tensor, error) {
	v, ok := s.vars[name]
	if !ok {
		return nil, fmt.Errorf("tf: unknown variable %q", name)
	}
	return v.Clone(), nil
}

// SetVariable overwrites a variable's value (used by the distributed
// workers when pulling parameters from the parameter server).
func (s *Session) SetVariable(name string, t *Tensor) error {
	cur, ok := s.vars[name]
	if !ok {
		return fmt.Errorf("tf: unknown variable %q", name)
	}
	if !cur.Shape().Equal(t.Shape()) {
		return fmt.Errorf("tf: variable %q shape %v, got %v", name, cur.Shape(), t.Shape())
	}
	s.vars[name] = t.Clone()
	return nil
}

// VariableNames lists the session's variables in graph order.
func (s *Session) VariableNames() []string {
	vars := s.graph.Variables()
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = v.name
	}
	return names
}

// slot returns (creating if needed) a zero-initialized optimizer slot
// shaped like ref.
func (s *Session) slot(key string, ref *Tensor) *Tensor {
	if t, ok := s.slots[key]; ok {
		return t
	}
	t := NewTensor(Float32, ref.Shape())
	s.slots[key] = t
	return t
}
