package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
)

// Model is a trainer's graph and the node handles the training loop
// needs (Graph, X, Y and Loss). Build every replica from the same seed,
// so its initial variables are the parameter server's or coordinator's.
type Model = models.Handles

// Plan is a model's training step, built once: the loss and the
// gradient of every variable the loss depends on. NewPlan adds the
// gradient subgraph to the model's graph; after it, the graph is only
// read, so any number of replicas may step sessions over one plan
// concurrently, each session with its own variables.
//
// The plan keeps the sessions no replica holds on a free list, each with
// the tensors a step needs of it: a replica takes one for as long as it
// trains and gives it back (Hold, Release), and the plan opens another
// only when every one it has is held. So the sessions of a plan are as
// many as its replicas hold at once, not as many as it has replicas.
type Plan struct {
	x, y *tf.Node
	// fetch is one step's Run: the loss, then the gradient of every
	// variable in names, in graph order.
	fetch  []*tf.Node
	names  []string
	shapes []tf.Shape // of the variables in names
	graph  *tf.Graph
	// opts are every session's options: its device, say.
	opts []tf.SessionOption

	mu     sync.Mutex
	free   []session // sessions no replica holds
	opened int
}

// session is one of a plan's sessions and the tensors a step needs of
// it, aligned with the plan's names: the session's own tensors of the
// variables, and the tensors a step fetches the gradients into — nothing
// for the loss, then one per variable, shaped like it. A StepsOn
// replica's has neither.
type session struct {
	sess       *tf.Session
	vars, into []*tf.Tensor
}

// NewPlan checks the model and builds the gradient subgraph of its loss.
// Call it once per model: every call adds another subgraph. opts apply
// to every session the plan opens; a replica's dropout stream is its own
// (NewReplica), whatever tf.WithSeed says.
func NewPlan(m Model, opts ...tf.SessionOption) (*Plan, error) {
	if m.Graph == nil || m.X == nil || m.Y == nil || m.Loss == nil {
		return nil, errors.New("dist: a model requires Graph, X, Y and Loss")
	}
	vars, grads, err := tf.GradientNodes(m.Graph, m.Loss)
	if err != nil {
		return nil, fmt.Errorf("dist: gradient subgraph: %w", err)
	}
	if len(grads) == 0 {
		return nil, errors.New("dist: model loss depends on no variables")
	}
	p := &Plan{x: m.X, y: m.Y, fetch: append([]*tf.Node{m.Loss}, grads...), graph: m.Graph, opts: opts}
	for _, v := range vars {
		p.names, p.shapes = append(p.names, v.Name()), append(p.shapes, v.Shape())
	}
	return p, nil
}

// Sessions reports how many sessions the plan has opened.
func (p *Plan) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opened
}

// take hands out a session no replica holds, opening one if there is
// none.
func (p *Plan) take() (session, error) {
	p.mu.Lock()
	if last := len(p.free) - 1; last >= 0 {
		s := p.free[last]
		p.free[last] = session{}
		p.free = p.free[:last]
		p.mu.Unlock()
		return s, nil
	}
	p.opened++
	p.mu.Unlock()
	s := session{sess: tf.NewSession(p.graph, p.opts...), into: []*tf.Tensor{nil}}
	for _, name := range p.names {
		t, err := s.sess.VariableStorage(name)
		if err != nil {
			s.sess.Close()
			return session{}, err
		}
		s.vars = append(s.vars, t)
		s.into = append(s.into, tf.NewTensor(t.DType(), t.Shape()))
	}
	return s, nil
}

// give puts a session take handed out back on the free list.
func (p *Plan) give(s session) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Replica is the local half of a training step, the same under every
// aggregation rule: the next minibatch of a private data shard is fed
// to one session, which returns the loss and what the step fetches with
// it. A Worker pushes the gradients it fetches to its parameter-server
// shards, a federated client applies them in place (ApplySGD) and
// uploads the difference, and the facade's single-node TrainMore fetches
// an optimizer's train op instead (StepsOn).
//
// A NewReplica steps a session it holds from Hold to Release, one of its
// plan's: a worker holds one for its life, a federated client for the
// local steps of a round. What the replica keeps between is its shard
// and its dropout stream.
type Replica struct {
	plan *Plan // nil for StepsOn
	// session is the one the replica holds, the zero value when it holds
	// none (see the package comment on who may write through its vars).
	session
	x, y *tf.Node
	// xs and ys are the private data shard, batch the minibatch size.
	xs, ys *tf.Tensor
	batch  int
	// fetch is one step's Run: a Plan's, or the loss and the train op.
	fetch []*tf.Node
	// run is every step's Run options: training, and of a NewReplica its
	// own dropout stream, whichever session it holds.
	run    []tf.RunOption
	names  []string
	shapes []tf.Shape
}

// NewReplica checks the shard and returns a replica of the plan that
// trains on it, holding no session yet. Its dropout masks come from a
// stream of its own, seeded seed, which runs on across the sessions it
// holds.
func NewReplica(p *Plan, xs, ys *tf.Tensor, batch int, seed int64) (*Replica, error) {
	if _, _, err := tf.Minibatch(xs, ys, batch, 0); err != nil {
		return nil, err
	}
	return &Replica{
		plan: p, x: p.x, y: p.y, xs: xs, ys: ys, batch: batch, fetch: p.fetch, names: p.names, shapes: p.shapes,
		run: []tf.RunOption{tf.Training(), tf.RNG(rand.New(rand.NewSource(seed)))},
	}, nil
}

// StepsOn is the replica of a session its caller opened over m's graph
// and keeps, and whose graph updates its own variables: each step
// fetches update, an optimizer's train op, after the loss. It holds the
// session from the start and draws from the session's RNG.
func StepsOn(sess *tf.Session, m Model, update *tf.Node, xs, ys *tf.Tensor, batch int) (*Replica, error) {
	if _, _, err := tf.Minibatch(xs, ys, batch, 0); err != nil {
		return nil, err
	}
	return &Replica{session: session{sess: sess}, x: m.X, y: m.Y, xs: xs, ys: ys, batch: batch,
		fetch: []*tf.Node{m.Loss, update}, run: []tf.RunOption{tf.Training()}}, nil
}

// Hold takes a session from the plan for the replica's steps, until
// Release. Its variables hold whatever the last holder left in them:
// the holder writes all of them before the first Step.
func (r *Replica) Hold() error {
	s, err := r.plan.take()
	if err != nil {
		return err
	}
	r.session = s
	return nil
}

// Release gives the session the replica holds back to the plan. What a
// Step returned, and the tensors Variable returned, are no longer the
// replica's.
func (r *Replica) Release() {
	if r.sess != nil {
		r.plan.give(r.session)
		r.session = session{}
	}
}

// Names lists the variables the loss depends on, in graph order.
func (r *Replica) Names() []string { return r.names }

// Shape returns the shape of a variable in Names, nil for any other
// name.
func (r *Replica) Shape(name string) tf.Shape {
	if i := slices.Index(r.names, name); i >= 0 {
		return r.shapes[i]
	}
	return nil
}

// Variable returns the held session's own tensor of a variable in
// Names, nil for any other name or when the replica holds no session:
// what a link decodes a received value into.
func (r *Replica) Variable(name string) *tf.Tensor {
	if i := slices.Index(r.names, name); i >= 0 && r.vars != nil {
		return r.vars[i]
	}
	return nil
}

// Step runs the forward and backward pass over step's minibatch and
// returns the loss and the rest of the fetch plan — of a NewReplica the
// gradients, aligned with Names. The gradients are the replica's: valid
// until the next Step, which computes into the same tensors, or Release.
func (r *Replica) Step(step int) (float64, []*tf.Tensor, error) {
	if r.sess == nil {
		return 0, nil, errors.New("dist: the replica holds no session")
	}
	bx, by, err := tf.Minibatch(r.xs, r.ys, r.batch, step)
	if err != nil {
		return 0, nil, err
	}
	out, err := r.sess.RunInto(tf.Feeds{r.x: bx, r.y: by}, r.fetch, r.into, r.run...)
	if err != nil {
		return 0, nil, err
	}
	return float64(out[0].Floats()[0]), out[1:], nil
}

// ApplySGD takes one local gradient-descent step in place, on the held
// session's variables: grads are a Step's, lr the learning rate.
func (r *Replica) ApplySGD(lr float32, grads []*tf.Tensor) {
	for i, v := range r.vars {
		kernels.ApplySGD(v.Floats(), grads[i].Floats(), lr)
	}
}

// Close closes the session the replica holds, if any, instead of giving
// it back.
func (r *Replica) Close() {
	if r.sess != nil {
		r.sess.Close()
		r.session = session{}
	}
}
