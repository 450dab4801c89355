package dist

import (
	"errors"
	"fmt"

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
// read, so any number of replicas may open sessions over one plan and
// step them concurrently, each with its own variables.
type Plan struct {
	x, y *tf.Node
	// fetch is one step's Run: the loss, then the gradient of every
	// variable in names, in graph order.
	fetch []*tf.Node
	names []string
	graph *tf.Graph
}

// NewPlan checks the model and builds the gradient subgraph of its loss.
// Call it once per model: every call adds another subgraph.
func NewPlan(m Model) (*Plan, error) {
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
	p := &Plan{x: m.X, y: m.Y, fetch: append([]*tf.Node{m.Loss}, grads...), graph: m.Graph}
	for _, v := range vars {
		p.names = append(p.names, v.Name())
	}
	return p, nil
}

// Replica is the local half of a training step, the same under every
// aggregation rule: the next minibatch of a private data shard is fed
// to one session, which returns the loss and what the step fetches with
// it. A Worker pushes the gradients it fetches to its parameter-server
// shards, a federated client applies them in place (ApplySGD) and
// uploads the difference, and the facade's single-node TrainMore fetches
// an optimizer's train op instead (StepsOn).
type Replica struct {
	sess *tf.Session
	x, y *tf.Node
	// xs and ys are the private data shard, batch the minibatch size.
	xs, ys *tf.Tensor
	batch  int
	// fetch is one step's Run: a Plan's, or the loss and the train op.
	fetch []*tf.Node
	// into is where a NewReplica's step fetches to: nothing for the
	// loss, then one tensor per gradient, shaped like its variable, that
	// every Step overwrites. A StepsOn replica has none.
	into []*tf.Tensor
	// names and vars are the plan's variables and the session's own
	// tensors of them (see the package comment on who may write through
	// these).
	names []string
	vars  []*tf.Tensor
}

// NewReplica checks the shard and opens a session over the plan's
// graph, which Close releases. The session's variables start at the
// graph's initial values and are the replica's alone.
func NewReplica(p *Plan, xs, ys *tf.Tensor, batch int, opts ...tf.SessionOption) (*Replica, error) {
	if _, _, err := tf.Minibatch(xs, ys, batch, 0); err != nil {
		return nil, err
	}
	r := &Replica{
		sess: tf.NewSession(p.graph, opts...), x: p.x, y: p.y, xs: xs, ys: ys, batch: batch,
		fetch: p.fetch, into: []*tf.Tensor{nil}, names: p.names,
	}
	for _, name := range p.names {
		t, err := r.sess.VariableStorage(name)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.vars = append(r.vars, t)
		r.into = append(r.into, tf.NewTensor(t.DType(), t.Shape()))
	}
	return r, nil
}

// StepsOn is the replica of a session its caller opened over m's graph
// and keeps, and whose graph updates its own variables: each step
// fetches update, an optimizer's train op, after the loss.
func StepsOn(sess *tf.Session, m Model, update *tf.Node, xs, ys *tf.Tensor, batch int) (*Replica, error) {
	if _, _, err := tf.Minibatch(xs, ys, batch, 0); err != nil {
		return nil, err
	}
	return &Replica{sess: sess, x: m.X, y: m.Y, xs: xs, ys: ys, batch: batch, fetch: []*tf.Node{m.Loss, update}}, nil
}

// Names lists the variables the loss depends on, in graph order.
func (r *Replica) Names() []string { return r.names }

// Variable returns the session's own tensor of a variable in Names, nil
// for any other name: what a link decodes a received value into.
func (r *Replica) Variable(name string) *tf.Tensor {
	for i, n := range r.names {
		if n == name {
			return r.vars[i]
		}
	}
	return nil
}

// Step runs the forward and backward pass over step's minibatch and
// returns the loss and the rest of the fetch plan — of a NewReplica the
// gradients, aligned with Names. The gradients are the replica's: valid
// until the next Step, which computes into the same tensors.
func (r *Replica) Step(step int) (float64, []*tf.Tensor, error) {
	bx, by, err := tf.Minibatch(r.xs, r.ys, r.batch, step)
	if err != nil {
		return 0, nil, err
	}
	out, err := r.sess.RunInto(tf.Feeds{r.x: bx, r.y: by}, r.fetch, r.into, tf.Training())
	if err != nil {
		return 0, nil, err
	}
	return float64(out[0].Floats()[0]), out[1:], nil
}

// ApplySGD takes one local gradient-descent step in place, on the
// session's variables: grads are a Step's, lr the learning rate.
func (r *Replica) ApplySGD(lr float32, grads []*tf.Tensor) {
	for i, v := range r.vars {
		kernels.ApplySGD(v.Floats(), grads[i].Floats(), lr)
	}
}

// Close releases the session NewReplica opened.
func (r *Replica) Close() { r.sess.Close() }
