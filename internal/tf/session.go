package tf

import (
	"fmt"
	"math/rand"
	"slices"

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

	// slabs are what a Run's kernels draw every output and scratch buffer
	// from, at the offsets its plan lays out (runPlan), as long as the
	// last Run's layout needs; plans keeps the plan of each fetch list run
	// lately, most recent first, and ctx the evaluation state Runs share.
	// What is charged for the storage is arenaPeak: the most the slabs and
	// the Run's Const values have held.
	slabs
	plans     []*runPlan
	ctx       execCtx
	arenaPeak int64
}

// slabs is Slabs under a name that keeps a Session's embedded slabs its
// own: their f32 and i32 are its fields, and no one else's.
type slabs = Slabs

// maxPlans bounds the plans a Session keeps: a trainer runs a step, an
// evaluation and perhaps a checkpoint's fetches, and a caller that builds
// a new fetch node for every Run must not grow the session without end.
const maxPlans = 8

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
	s.ctx = execCtx{sess: s, in: make([]*Tensor, 0, 3), shapes: make([]Shape, 0, 3)}
	for _, o := range opts {
		o(s)
	}
	if s.device == nil {
		s.device = device.NewNull()
	}
	var varBytes int64
	for _, v := range g.Variables() {
		init := attr[*Tensor](v, "initial", nil)
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

// Close releases the session's device registrations and the storage it
// kept for the next Run.
func (s *Session) Close() {
	s.device.Free("tf/variables")
	s.device.Free("tf/arena")
	s.f32, s.i32, s.plans = nil, nil, nil
}

// Feeds maps placeholder nodes to their input tensors for one Run.
type Feeds map[*Node]*Tensor

// RunOption configures one Run call. It takes and returns the options
// by value, so applying one moves nothing to the heap.
type RunOption func(runConfig) runConfig

type runConfig struct {
	training bool
	rng      *rand.Rand
}

// Training enables training behaviour (dropout active) for the run.
func Training() RunOption {
	return func(c runConfig) runConfig { c.training = true; return c }
}

// RNG makes the run draw its dropout masks from rng instead of the
// session's RNG (WithSeed), so that a stream can belong to whoever
// runs the session rather than to the session.
func RNG(rng *rand.Rand) RunOption {
	return func(c runConfig) runConfig { c.rng = rng; return c }
}

// Run evaluates fetches under the given feeds and returns their values in
// order. Side-effecting nodes (optimizer applies, groups) are included as
// ordinary fetches. The results are the caller's to keep: no later Run
// or SetVariable writes to them (a fetched variable is a copy).
// Everything else a Run computes is the session's, and the next Run
// computes into the same storage. A Run never writes its feeds. Run is
// RunInto with no storage of the caller's.
func (s *Session) Run(feeds Feeds, fetches []*Node, opts ...RunOption) ([]*Tensor, error) {
	return s.RunInto(feeds, fetches, nil, opts...)
}

// RunInto is Run that copies fetch i's value into into[i] wherever that
// is non-nil and returns into[i] in its place. The storage the value was
// computed in then stays the session's, for the next Run to compute
// into, so a step that fetches into tensors it keeps allocates none of
// its results. into is nil or as long as fetches; each tensor in it
// needs the fetch's dtype and element count (its own shape is kept),
// and a mismatch is an error before any of into is written.
func (s *Session) RunInto(feeds Feeds, fetches []*Node, into []*Tensor, opts ...RunOption) (results []*Tensor, err error) {
	if into != nil && len(into) != len(fetches) {
		return nil, fmt.Errorf("tf: %d fetches into %d tensors", len(fetches), len(into))
	}
	cfg := runConfig{rng: s.rng}
	for _, o := range opts {
		cfg = o(cfg)
	}
	p, err := s.plan(fetches)
	if err != nil {
		return nil, err
	}
	defer func() {
		p.reset()
		// The activation arena registered against the device is the
		// slabs the Run's layout needs — its planned peak — plus the
		// Const values the Run read, which the full runtime materializes
		// there: training's large intermediate state is what pressures
		// the EPC (§7.1). Variables are registered once, as tf/variables.
		if arena := 4*int64(len(s.f32)+len(s.i32)) + p.consts; err == nil && arena > s.arenaPeak {
			s.arenaPeak = arena
			s.device.Alloc("tf/arena", arena)
		}
	}()
	return s.run(p, feeds, into, cfg)
}

// run evaluates p's nodes under feeds into the storage p lays out, and
// returns the fetches' values as RunInto hands them out.
func (s *Session) run(p *runPlan, feeds Feeds, into []*Tensor, cfg runConfig) ([]*Tensor, error) {
	for node, t := range feeds {
		if node == nil || t == nil {
			return nil, fmt.Errorf("tf: nil feed")
		}
		if err := node.fits(t); err != nil {
			return nil, fmt.Errorf("tf: feeding %q: %w", node.name, err)
		}
		if k, ok := p.index[node]; ok {
			p.values[k] = t
		}
	}
	ctx := &s.ctx
	if err := s.shape(ctx, p); err != nil {
		return nil, err
	}
	if err := p.size(ctx.shapes); err != nil {
		return nil, err
	}
	p.Fit(&s.slabs)
	ctx.plan, ctx.training, ctx.rng = p, cfg.training, cfg.rng
	for k, n := range p.order {
		kernel, reads := p.kernels[k], p.reads[k]
		switch {
		case p.values[k] != nil || kernel == nil: // fed, a source, or a BiasAdd folded into its Relu
			continue
		case n.op == OpRelu && p.values[p.inputs[k][0]] != nil: // a Relu of its input, or of a folded BiasAdd's feed
			kernel, reads = kernelRelu, p.inputs[k]
		}
		ctx.at, ctx.shape, ctx.in = k, p.shapes[k], ctx.in[:0]
		for _, j := range reads {
			ctx.in = append(ctx.in, p.values[j])
		}
		out, err := kernel(ctx, n, ctx.in)
		if err != nil {
			return nil, fmt.Errorf("tf: evaluating %q (%s): %w", n.name, n.op, err)
		}
		p.values[k] = out
	}

	for i, dst := range into {
		if t := p.values[p.fetchAt[i]]; dst != nil && (dst.dtype != t.dtype || dst.NumElements() != t.NumElements()) {
			return nil, fmt.Errorf("tf: fetch %q is %v of %d elements, into %v of %d", p.fetches[i].name, t.dtype, t.NumElements(), dst.dtype, dst.NumElements())
		}
	}
	results := make([]*Tensor, len(p.fetchAt))
	for i, k := range p.fetchAt {
		t := p.values[k]
		switch {
		case into != nil && into[i] != nil:
			copy(into[i].f32, t.f32)
			copy(into[i].i32, t.i32)
			t = into[i]
		case s.isVariable(t) || within(t.f32, s.f32) || within(t.i32, s.i32):
			t = t.Clone()
		default: // a feed, or a Const's value
			t = &Tensor{dtype: t.dtype, shape: t.shape.Clone(), f32: t.f32, i32: t.i32}
		}
		results[i] = t
	}
	return results, nil
}

// shape fills in the value of every source p reads — a Const's, a
// variable's — and the shape of every node: a fed or source node's
// value's, and the one its rule derives from its inputs' for the rest.
// Their dtypes are as declared: feeds and variables fit them, and
// kernels yield their rule's.
func (s *Session) shape(ctx *execCtx, p *runPlan) error {
	for k, n := range p.order {
		if p.values[k] == nil {
			switch n.op {
			case OpPlaceholder:
				return fmt.Errorf("tf: evaluating %q (%s): placeholder not fed", n.name, n.op)
			case OpConst:
				p.values[k] = attr[*Tensor](n, "value", nil)
			case OpVariable:
				v, ok := s.vars[n.name]
				if !ok {
					return fmt.Errorf("tf: evaluating %q (%s): variable not initialized", n.name, n.op)
				}
				if err := n.fits(v); err != nil {
					return fmt.Errorf("tf: evaluating %q (%s): %w", n.name, n.op, err)
				}
				p.values[k] = v
			}
		}
		if v := p.values[k]; v != nil {
			p.shapes[k] = append(p.shapes[k][:0], v.shape...)
			continue
		}
		ctx.shapes = ctx.shapes[:0]
		for _, j := range p.inputs[k] {
			ctx.shapes = append(ctx.shapes, p.shapes[j])
		}
		var err error
		if p.shapes[k], err = opRules[n.op].shape(n, ctx.shapes, p.shapes[k][:0]); err != nil {
			return fmt.Errorf("tf: evaluating %q (%s): %w", n.name, n.op, err)
		}
	}
	return nil
}

// plan returns the plan for fetches, making it at their first Run, and
// keeps the session's plans most recently run first.
func (s *Session) plan(fetches []*Node) (*runPlan, error) {
	for i, p := range s.plans {
		if slices.Equal(p.fetches, fetches) {
			copy(s.plans[1:i+1], s.plans[:i])
			s.plans[0] = p
			return p, nil
		}
	}
	p, err := newPlan(fetches)
	if err != nil {
		return nil, err
	}
	s.plans = slices.Insert(s.plans[:min(len(s.plans), maxPlans-1)], 0, p)
	return p, nil
}

// sharesStorage reports whether a and b are views of one backing array.
func sharesStorage(a, b *Tensor) bool { return sameArray(a.f32, b.f32) || sameArray(a.i32, b.i32) }

// isVariable reports whether t is, or is a view of, a variable's
// storage, which optimizer applies and SetVariable write in place.
func (s *Session) isVariable(t *Tensor) bool {
	for _, v := range s.vars {
		if sharesStorage(t, v) {
			return true
		}
	}
	return false
}

func sameArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// fits checks t against what n declares: its dtype, its rank and every
// dim it knows.
func (n *Node) fits(t *Tensor) error {
	if t.dtype != n.dtype || !alike(t.shape, n.shape) {
		return fmt.Errorf("%v %v does not fit %q's %v %v", t.dtype, t.shape, n.name, n.dtype, n.shape)
	}
	return nil
}

// Variable returns a copy of the current value of the named variable.
func (s *Session) Variable(name string) (*Tensor, error) {
	v, ok := s.vars[name]
	if !ok {
		return nil, fmt.Errorf("tf: unknown variable %q", name)
	}
	return v.Clone(), nil
}

// SetVariable overwrites a variable's value with a copy of t, which must
// have the variable's dtype and shape.
func (s *Session) SetVariable(name string, t *Tensor) error {
	cur, ok := s.vars[name]
	if !ok {
		return fmt.Errorf("tf: unknown variable %q", name)
	}
	if cur.DType() != t.DType() || !cur.Shape().Equal(t.Shape()) {
		return fmt.Errorf("tf: variable %q is %v %v, got %v %v", name, cur.DType(), cur.Shape(), t.DType(), t.Shape())
	}
	copy(cur.f32, t.f32)
	copy(cur.i32, t.i32)
	return nil
}

// VariableStorage returns the named variable's own tensor, not a copy:
// a write through it is a write to the session's state, and it stays
// the variable's tensor for the session's life. It is what
// DecodeTensorInto is handed when the distributed worker's pull decodes
// the parameter server's reply straight into place.
func (s *Session) VariableStorage(name string) (*Tensor, error) {
	v, ok := s.vars[name]
	if !ok {
		return nil, fmt.Errorf("tf: unknown variable %q", name)
	}
	return v, nil
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
