// Package dist implements the distributed training architecture of the
// paper's §5.4: between-graph data-parallel SGD with a parameter server,
// the classic TF1 deployment secureTF runs inside SGX enclaves.
//
// A ParameterServer owns the authoritative variable values and commits
// gradients under a per-shard ConsistencyPolicy: synchronous barrier
// rounds (averaged gradients, every worker in lockstep) or asynchronous
// apply-on-push under a bounded staleness K. Workers hold a full model
// replica each, train on private data shards and exchange parameters and
// gradients over a length-prefixed wire protocol on ordinary net.Conn
// values. Callers supply the listener and dial function, so connections
// go through the container's network shield and Figure 8's "w/ TLS"
// series exercises exactly the paper's setup.
//
// Every message carries the sender's virtual-time stamp; the receiver
// advances its own clock to the stamp plus half a LAN round trip
// (conservative causal sync, the same convention as the CAS protocol).
// Because the parameter server only commits a round after receiving all
// workers' pushes, its clock is causally behind no worker and therefore
// carries the end-to-end training latency.
//
// # Who owns what
//
// A step allocates what it gives away and nothing else, because every
// buffer has one owner. internal/federated trains through the same
// Replica and talks through the same Link, and keeps the same rule:
//
//   - A Plan owns its sessions, each with its variables, the tensors
//     its gradients are fetched into and its activations' slabs. A
//     Replica holds one from Hold to Release, and what is the session's
//     is the Replica's for that span: a worker holds one for its life, a
//     federated client only for a round's local steps, so a plan opens
//     as many sessions as its replicas hold at once. A Replica's
//     dropout stream is its own and goes with it, from session to
//     session.
//   - A Replica's variables are its held session's tensors. Its holder
//     writes through them in two ways, never during a Step: the Link a
//     worker's pull reply arrives on decodes the frame straight into
//     them — all of the frame or, if any tensor in it does not fit,
//     none — and Replica.ApplySGD updates them in place. A session's
//     next holder finds what the last one left: it writes every
//     variable before its first Step (a federated client copies in its
//     round's assignment, which its Link decoded into a round buffer of
//     the client's).
//   - What Step returns is the Replica's, valid until the next Step or
//     Release: the session fetches the gradients into tensors its plan
//     made, one per variable, and every Step overwrites them. Each
//     holder consumes them first — a worker's push and its staleness
//     retry (which recomputes them before re-pushing), a federated
//     client's ApplySGD. The minibatch a Step feeds is a view of the
//     shard, which a Run never writes.
//   - A Link borrows its frames from its owner's list (a wire.Frames):
//     a buffer of the frame's size for each Send, given back once the
//     frame is written, and one for each Receive, given back once the
//     message is decoded. An idle link holds none. The list is the
//     link's own (NewLink: a parameter-server connection, a worker's,
//     a free-threaded federated client's), the coordinator's for all
//     its connections, or a federated Turnstile's for the clients whose
//     exchanges it serializes (NewLinkFrom); so the memory a connection
//     costs between exchanges is none. A received message's blobs
//     (Grads) alias its frame, which the link keeps until its next
//     Send, Receive or Close; its tensors (Vars) are the receiver's
//     own, the ones the Link was told to decode into. A frame that is
//     cut short or does not decode is dropped, not given back, so a
//     hostile peer's bytes do not stay in a shared list; so is one
//     larger than the list's Max, which the coordinator sets to the
//     largest frame a well-formed exchange of its job carries. Send
//     copies a message into its frame, so what it points at (a shard's
//     variables under its lock, a coordinator's round snapshot, a
//     client's upload blobs) need only hold still for that call.
//   - A shard keeps, per connection, the gradient tensors its worker's
//     pushes are decoded into; the round's commit consumes them before
//     that worker can push again.
//   - Send and Receive, the functions, are a Link made for one call,
//     with a list of its own: the frame is allocated every time and the
//     caller may keep what it gets. Nothing on a hot path wants that.
package dist

import (
	"fmt"
	"time"

	"github.com/securetf/securetf/internal/tf"
)

// InitialVars extracts the declared initial values of every variable in
// g — the state a parameter server is seeded with. The result is a
// fresh copy; mutating it does not affect the graph.
func InitialVars(g *tf.Graph) map[string]*tf.Tensor {
	out := make(map[string]*tf.Tensor)
	if g == nil {
		return out
	}
	for _, v := range g.Variables() {
		if init := v.ConstValue(); init != nil {
			out[v.Name()] = init
		}
	}
	return out
}

// ConsistencyKind selects how a parameter-server shard commits gradient
// pushes.
type ConsistencyKind uint8

const (
	// ConsistencySync is the classic synchronous barrier: a round
	// commits only after every worker's push, applied as one averaged
	// SGD step. This is the zero value, so existing configurations keep
	// today's behavior unchanged.
	ConsistencySync ConsistencyKind = iota
	// ConsistencyAsync applies each worker's gradient immediately on
	// push, bounded by the policy's staleness K.
	ConsistencyAsync
)

// ConsistencyPolicy is one parameter-server shard's commit discipline.
// Every shard of a cluster may choose its own policy, but every worker
// must expect the policy its shards actually run: the connection
// handshake carries the policy both ways and a mismatch fails the
// worker at construction (mixed-policy clusters fail fast instead of
// hanging one side on a barrier the other never fills).
type ConsistencyPolicy struct {
	Kind ConsistencyKind
	// Staleness is the async bound K, measured in shard variable
	// versions (the shard bumps its version on every applied push). A
	// push whose pulled version lags the shard's current version by
	// more than K is rejected; the worker re-pulls, recomputes against
	// the fresh variables and retries. 0 demands gradients against the
	// latest variables; negative means unbounded (classic hogwild-style
	// async). Ignored in sync mode.
	Staleness int
}

// Sync is the synchronous barrier policy — today's default.
func Sync() ConsistencyPolicy { return ConsistencyPolicy{Kind: ConsistencySync} }

// Async is the apply-on-push policy with staleness bound K (negative
// for unbounded).
func Async(staleness int) ConsistencyPolicy {
	return ConsistencyPolicy{Kind: ConsistencyAsync, Staleness: staleness}
}

// normalize canonicalizes the policy so equality comparisons (the
// handshake, tests) are well defined: sync carries no staleness, and
// every unbounded async value collapses to -1.
func (p ConsistencyPolicy) normalize() ConsistencyPolicy {
	if p.Kind == ConsistencySync {
		return ConsistencyPolicy{Kind: ConsistencySync}
	}
	if p.Staleness < 0 {
		p.Staleness = -1
	}
	return p
}

// String renders the policy for errors and experiment labels.
func (p ConsistencyPolicy) String() string {
	p = p.normalize()
	if p.Kind == ConsistencySync {
		return "sync"
	}
	if p.Staleness < 0 {
		return "async(staleness=inf)"
	}
	return fmt.Sprintf("async(staleness=%d)", p.Staleness)
}

// Breakdown is the per-phase virtual time of one synchronous training
// step, the decomposition Figure 8's analysis talks about: Pull is
// fetching current parameters from the PS, Compute the local
// forward/backward pass, and Push sending gradients and blocking on the
// round barrier.
type Breakdown struct {
	Pull    time.Duration
	Compute time.Duration
	Push    time.Duration
}
