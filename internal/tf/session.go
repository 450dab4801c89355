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

	// f32 and i32 hold the storage of a Run's intermediates between
	// Runs (see freeList). What is charged for it is arenaPeak, the
	// cost model's arena, which does not know the lists exist.
	f32       freeList[float32]
	i32       freeList[int32]
	arenaPeak int64
}

// freeList is the session's memory plan: every kernel output and forward
// cache of a Run is drawn from it, and when the Run ends it takes back
// everything the Run drew except the storage behind a result Run gave
// away, which is the caller's from then on; a result RunInto copied into
// the caller's storage gives nothing away. Ownership goes by backing
// array, not by *Tensor: a Reshape is a view of its input and Dropout can
// hand its input through, so a fetched tensor may share storage with an
// intermediate that was not fetched.
//
// Buffers are matched by exact element count, so a step that repeats the
// last one's shapes allocates only what it gives away, and nothing when
// it fetches into its own storage (RunInto). What a Run did not draw it
// drops: the list never holds more than the last Run used, and an
// evaluation at batch 10 000 is not pinned under a batch-50 trainer. The scan is linear in the buffers of one Run, a few dozen.
//
// A runtime that knows when an intermediate is dead (the Lite
// interpreter, through Arena) can also hand a buffer back before the Run
// ends (put): a later draw of the same Run may take it, and the Run's
// end keeps it as it keeps what was drawn. A Session never does.
type freeList[T any] struct {
	free  [][]T // drawn by the last Run and not given away
	drawn [][]T // drawn by the current Run so far and held
	back  [][]T // drawn by the current Run and handed back
}

// get draws a buffer of n elements. A reused buffer holds whatever its
// last user left in it unless zero is set.
func (l *freeList[T]) get(n int, zero bool) []T {
	if n == 0 {
		return []T{}
	}
	buf := take(&l.back, n)
	if buf == nil {
		buf = take(&l.free, n)
	}
	if buf == nil {
		buf = make([]T, n)
	} else if zero {
		clear(buf)
	}
	l.drawn = append(l.drawn, buf)
	return buf
}

// take removes a buffer of n elements from bufs and returns it, or nil.
func take[T any](bufs *[][]T, n int) []T {
	for i, b := range *bufs {
		if len(b) == n {
			last := len(*bufs) - 1
			(*bufs)[i], (*bufs)[last] = (*bufs)[last], nil
			*bufs = (*bufs)[:last]
			return b
		}
	}
	return nil
}

// release gives the backing array of buf, if this Run drew it, away.
func (l *freeList[T]) release(buf []T) { l.unlist(buf) }

// put hands the backing array of buf, if this Run drew it, back for a
// later draw.
func (l *freeList[T]) put(buf []T) {
	if b := l.unlist(buf); b != nil {
		l.back = append(l.back, b)
	}
}

// unlist removes the backing array of buf from what this Run holds and
// returns it, or nil if this Run did not draw it.
func (l *freeList[T]) unlist(buf []T) []T {
	for i, b := range l.drawn {
		if sameArray(b, buf) {
			last := len(l.drawn) - 1
			l.drawn[i], l.drawn[last] = l.drawn[last], nil
			l.drawn = l.drawn[:last]
			return b
		}
	}
	return nil
}

// recycle ends a Run: what it drew and did not give away is the next
// Run's free list, and what it left undrawn is dropped.
func (l *freeList[T]) recycle() {
	clear(l.free)
	l.free, l.drawn = append(l.drawn, l.back...), l.free[:0]
	clear(l.back)
	l.back = l.back[:0]
}

// Arena is a Session's pair of free lists for a runtime that is not a
// Session: the Lite interpreter draws an Invoke's activations from one
// and hands each back once its last reader has run. What it draws stays
// the arena's; a tensor the runtime gives away it makes with NewTensor.
// An Arena is not safe for concurrent use.
type Arena struct {
	f32 freeList[float32]
	i32 freeList[int32]
}

// Draw re-points t at storage for a tensor of dtype and shape drawn from
// the arena, reusing t's shape storage. A reused buffer holds whatever
// its last user left in it unless zero is set.
func (a *Arena) Draw(t *Tensor, dtype DType, shape Shape, zero bool) {
	n := shape.NumElements()
	if n < 0 {
		panic("tf: cannot draw a tensor of unknown shape")
	}
	t.dtype, t.shape, t.f32, t.i32 = dtype, append(t.shape[:0], shape...), nil, nil
	if dtype == Int32 {
		t.i32 = a.i32.get(n, zero)
	} else {
		t.f32 = a.f32.get(n, zero)
	}
}

// Return hands the storage behind t back before the run ends, for a
// later Draw of the same run. Storage the arena did not draw in this run
// — an input, a weight, a buffer already returned — it does not take.
func (a *Arena) Return(t *Tensor) {
	a.f32.put(t.f32)
	a.i32.put(t.i32)
}

// Recycle ends a run: what it drew is the next run's to draw, and what
// it left undrawn is dropped.
func (a *Arena) Recycle() {
	a.f32.recycle()
	a.i32.recycle()
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
	s.f32, s.i32 = freeList[float32]{}, freeList[int32]{}
}

// Feeds maps placeholder nodes to their input tensors for one Run.
type Feeds map[*Node]*Tensor

// RunOption configures one Run call.
type RunOption func(*runConfig)

type runConfig struct {
	training bool
	rng      *rand.Rand
}

// Training enables training behaviour (dropout active) for the run.
func Training() RunOption {
	return func(c *runConfig) { c.training = true }
}

// RNG makes the run draw its dropout masks from rng instead of the
// session's RNG (WithSeed), so that a stream can belong to whoever
// runs the session rather than to the session.
func RNG(rng *rand.Rand) RunOption {
	return func(c *runConfig) { c.rng = rng }
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
func (s *Session) RunInto(feeds Feeds, fetches []*Node, into []*Tensor, opts ...RunOption) ([]*Tensor, error) {
	if into != nil && len(into) != len(fetches) {
		return nil, fmt.Errorf("tf: %d fetches into %d tensors", len(fetches), len(into))
	}
	cfg := runConfig{rng: s.rng}
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
		rng:      cfg.rng,
		values:   make(map[*Node]*Tensor, len(order)),
		extras:   make(map[string]*cache),
		in:       make([]*Tensor, 0, 3),
		shapes:   make([]Shape, 0, 3),
		shape:    make(Shape, 0, maxRank),
	}
	for node, t := range feeds {
		if node == nil || t == nil {
			return nil, fmt.Errorf("tf: nil feed")
		}
		if err := node.fits(t); err != nil {
			return nil, fmt.Errorf("tf: feeding %q: %w", node.name, err)
		}
		ctx.values[node] = t
	}
	defer func() {
		s.f32.recycle()
		s.i32.recycle()
	}()

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

	for i, dst := range into {
		if t := ctx.values[fetches[i]]; dst != nil && (dst.dtype != t.dtype || dst.NumElements() != t.NumElements()) {
			return nil, fmt.Errorf("tf: fetch %q is %v of %d elements, into %v of %d", fetches[i].name, t.dtype, t.NumElements(), dst.dtype, dst.NumElements())
		}
	}
	results := make([]*Tensor, len(fetches))
	for i, f := range fetches {
		t := ctx.values[f]
		switch {
		case into != nil && into[i] != nil:
			copy(into[i].f32, t.f32)
			copy(into[i].i32, t.i32)
			t = into[i]
		case s.isVariable(t):
			t = t.Clone()
		default:
			s.f32.release(t.f32)
			s.i32.release(t.i32)
		}
		results[i] = t
	}
	return results, nil
}

// isVariable reports whether t is, or is a view of, a variable's
// storage, which optimizer applies and SetVariable write in place.
func (s *Session) isVariable(t *Tensor) bool {
	for _, v := range s.vars {
		if sameArray(t.f32, v.f32) || sameArray(t.i32, v.i32) {
			return true
		}
	}
	return false
}

func sameArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// evalNode applies n's rule to its inputs' shapes and runs its kernel,
// which computes into the shape the rule derives. Their dtypes are as
// declared: feeds and variables fit them, and kernels yield their rule's.
func (s *Session) evalNode(ctx *execCtx, n *Node) (*Tensor, error) {
	switch n.op {
	case OpPlaceholder:
		return nil, fmt.Errorf("placeholder not fed")
	case OpConst:
		return attr[*Tensor](n, "value", nil), nil
	case OpVariable:
		v, ok := s.vars[n.name]
		if !ok {
			return nil, fmt.Errorf("variable not initialized")
		}
		return v, n.fits(v)
	}
	ctx.in, ctx.shapes = ctx.in[:0], ctx.shapes[:0]
	for _, input := range n.inputs {
		v, ok := ctx.values[input]
		if !ok {
			return nil, fmt.Errorf("input %q not evaluated", input.name)
		}
		ctx.in, ctx.shapes = append(ctx.in, v), append(ctx.shapes, v.shape)
	}
	rule := opRules[n.op]
	var err error
	if ctx.shape, err = rule.shape(n, ctx.shapes, ctx.shape[:0]); err != nil {
		return nil, err
	}
	return rule.kernel(ctx, n, ctx.in)
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
