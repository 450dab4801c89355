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

	// f32 and i32 hold the storage of a Run's intermediates (see
	// freeList); plans keeps the plan of each fetch list run lately (see
	// runPlan), most recent first, and ctx the evaluation state Runs
	// share. What is charged for the storage is arenaPeak: the most the
	// lists held at the end of a Run, plus the Run's Const values.
	f32       freeList[float32]
	i32       freeList[int32]
	plans     []*runPlan
	ctx       execCtx
	arenaPeak int64
}

// maxPlans bounds the plans a Session keeps: a trainer runs a step, an
// evaluation and perhaps a checkpoint's fetches, and a caller that builds
// a new fetch node for every Run must not grow the session without end.
const maxPlans = 8

// freeList is the session's memory: every kernel output and forward
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
// evaluation at batch 10 000 is not pinned under a batch-50 trainer. The
// scan is linear in the buffers of one Run, a few dozen.
//
// A runtime that knows when an intermediate is dead hands its buffer back
// before the Run ends (put): a later draw of the same Run may take it,
// and the Run's end keeps it as it keeps what was drawn. A Session does
// so at each intermediate's last reader (runPlan), and the Lite
// interpreter through Arena.
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
// Run's free list, and what it left undrawn is dropped. It returns the
// elements the list now holds.
func (l *freeList[T]) recycle() (held int) {
	clear(l.free)
	l.free, l.drawn = append(l.drawn, l.back...), l.free[:0]
	clear(l.back)
	l.back = l.back[:0]
	for _, b := range l.free {
		held += len(b)
	}
	return held
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
	draw(t, &a.f32, &a.i32, dtype, shape, zero)
}

// draw re-points t at storage for a tensor of dtype and shape drawn from
// f32 or i32, reusing t's shape storage.
func draw(t *Tensor, f32 *freeList[float32], i32 *freeList[int32], dtype DType, shape Shape, zero bool) {
	n := shape.NumElements()
	if n < 0 {
		panic("tf: cannot draw a tensor of unknown shape")
	}
	t.dtype, t.shape, t.f32, t.i32 = dtype, append(t.shape[:0], shape...), nil, nil
	if dtype == Int32 {
		t.i32 = i32.get(n, zero)
	} else {
		t.f32 = f32.get(n, zero)
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
// it left undrawn is dropped. It returns the bytes the arena now holds.
func (a *Arena) Recycle() int64 {
	return 4 * int64(a.f32.recycle()+a.i32.recycle())
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
	s.ctx = execCtx{sess: s, in: make([]*Tensor, 0, 3), shapes: make([]Shape, 0, 3), shape: make(Shape, 0, maxRank)}
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
	s.f32, s.i32, s.plans = freeList[float32]{}, freeList[int32]{}, nil
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
		held := 4 * int64(s.f32.recycle()+s.i32.recycle())
		p.reset()
		// The activation arena registered against the device is what
		// the session holds for the next Run, plus the Const values the
		// Run read, which the full runtime materializes there:
		// training's large intermediate state is what pressures the EPC
		// (§7.1). Variables are registered once, as tf/variables.
		if arena := held + p.consts; err == nil && arena > s.arenaPeak {
			s.arenaPeak = arena
			s.device.Alloc("tf/arena", arena)
		}
	}()
	return s.run(p, feeds, into, cfg)
}

// run evaluates p's nodes under feeds, handing each intermediate's
// storage back at its last reader, and returns the fetches' values as
// RunInto hands them out.
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
	ctx.plan, ctx.training, ctx.rng = p, cfg.training, cfg.rng
	for k, n := range p.order {
		if p.values[k] == nil {
			ctx.at = k
			out, err := s.evalNode(ctx, n)
			if err != nil {
				return nil, fmt.Errorf("tf: evaluating %q (%s): %w", n.name, n.op, err)
			}
			p.values[k] = out
		}
		for _, r := range p.release[k] {
			v := p.values[r]
			if aliases(p.order[r].op) && sharesStorage(v, p.values[p.inputs[r][0]]) {
				continue // its input's storage, which goes back with its input
			}
			s.f32.put(v.f32)
			s.i32.put(v.i32)
		}
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
		case s.isVariable(t):
			t = t.Clone()
		default:
			s.f32.release(t.f32)
			s.i32.release(t.i32)
			// The value's header is the plan's, re-pointed next Run.
			t = &Tensor{dtype: t.dtype, shape: t.shape.Clone(), f32: t.f32, i32: t.i32}
		}
		results[i] = t
	}
	return results, nil
}

// runPlan is how a Run of one fetch list goes, worked out at its first
// Run and kept for the next ones: the nodes in the order they run, where
// each one's inputs are, and after which node each intermediate's
// storage goes back to the free list. That is after its last reader,
// where a Reshape view or a pass-through (Dropout at inference,
// DropoutGrad without its mask) of it is a reader for as long as the
// view is read, since ownership goes by backing array. Fetches, and
// whatever they view, stay until the Run ends, as do forward caches.
// The plan also holds what a Run fills in as it goes, per node, which
// reset clears when the Run ends.
type runPlan struct {
	fetches []*Node
	order   []*Node
	index   map[*Node]int // position in order
	inputs  [][]int       // per position: its inputs' positions
	forward []int         // per position: the forward node whose cache it reads, or -1
	release [][]int       // per position: the positions whose storage goes back once it has run
	fetchAt []int         // per fetch: its position
	consts  int64         // bytes of the Const values the Run reads

	values []*Tensor // per position: its value this Run
	slots  []Tensor  // per position: the header its kernel's output is drawn into
	caches []cache   // per position: the forward cache its kernel left this Run
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

func newPlan(fetches []*Node) (*runPlan, error) {
	order, err := topoSort(fetches)
	if err != nil {
		return nil, err
	}
	n := len(order)
	p := &runPlan{
		fetches: slices.Clone(fetches),
		order:   order,
		index:   make(map[*Node]int, n),
		inputs:  make([][]int, n),
		forward: make([]int, n),
		release: make([][]int, n),
		fetchAt: make([]int, len(fetches)),
		values:  make([]*Tensor, n),
		slots:   make([]Tensor, n),
		caches:  make([]cache, n),
	}
	byName := make(map[string]int, n)
	for k, node := range order {
		p.index[node], byName[node.name] = k, k
	}
	last := make([]int, n) // per position: the last position reading its storage, n for none
	for k, node := range order {
		last[k], p.forward[k] = k, -1
		p.inputs[k] = make([]int, len(node.inputs))
		for i, in := range node.inputs {
			j := p.index[in]
			p.inputs[k][i], last[j] = j, k
		}
		if j, ok := byName[attr(node, "forward", "")]; ok {
			p.forward[k] = j
		}
		if node.op == OpConst {
			p.consts += attr[*Tensor](node, "value", nil).Bytes()
		}
	}
	for i, f := range fetches {
		p.fetchAt[i] = p.index[f]
		last[p.fetchAt[i]] = n
	}
	for k := n - 1; k >= 0; k-- { // a view's readers come after it
		if aliases(order[k].op) {
			j := p.inputs[k][0]
			last[j] = max(last[j], last[k])
		}
	}
	for k, node := range order {
		if last[k] < n && opRules[node.op].kernel != nil {
			p.release[last[k]] = append(p.release[last[k]], k)
		}
	}
	return p, nil
}

// aliases reports whether an op's output may be its input's storage.
func aliases(op string) bool { return op == OpReshape || op == OpDropout || op == OpDropoutGrad }

// sharesStorage reports whether a and b are views of one backing array.
func sharesStorage(a, b *Tensor) bool { return sameArray(a.f32, b.f32) || sameArray(a.i32, b.i32) }

// reset forgets what a Run left in p — values, the storage its headers
// point at, forward caches — so that a plan the session may not run
// again pins nothing the Run drew.
func (p *runPlan) reset() {
	clear(p.values)
	for i := range p.slots {
		p.slots[i].f32, p.slots[i].i32 = nil, nil
	}
	clear(p.caches)
}

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
	for _, j := range ctx.plan.inputs[ctx.at] {
		v := ctx.plan.values[j]
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
