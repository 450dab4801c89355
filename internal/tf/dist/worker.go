package dist

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
)

// WorkerConfig configures a training Worker.
type WorkerConfig struct {
	// ID distinguishes workers in errors and PS accounting.
	ID int
	// Addrs lists the parameter-server shard addresses, indexed by shard
	// id: Addrs[s] must be the endpoint of shard s of len(Addrs), so a
	// single-shard cluster is a one-element list. Required. The
	// connection handshake verifies this — a worker pointed at a
	// mis-sharded or partially started cluster fails construction
	// instead of hanging mid-round.
	Addrs []string
	// Dial opens the connections to the parameter-server shards. Route
	// it through the container so the network shield's TLS applies (the
	// paper's Figure 8 "w/ TLS" series). Defaults to net.Dial.
	Dial func(network, addr string) (net.Conn, error)
	// Model is this worker's local replica. Graph, X, Y and Loss are
	// required. Build every replica from the same seed as the variables
	// the PS was seeded with.
	Model Model
	// XS and YS are the worker's private data shard. Required.
	XS, YS *tf.Tensor
	// BatchSize is the per-step minibatch size. Required, ≥ 1.
	BatchSize int
	// Device is charged for the local forward/backward computation.
	// Defaults to a no-cost null device.
	Device device.Device
	// Meter charges the worker node's virtual clock for its frames. The
	// zero value is the device's clock at sgx.DefaultParams.
	Meter sgx.Meter
	// Consistency is the commit policy this worker expects every shard
	// to run: a cluster runs one. The zero value is Sync(), today's
	// barrier behavior. The connection handshake verifies the
	// expectation against each shard's actual policy, so a worker wired
	// into a mixed-policy or misconfigured cluster fails at
	// construction instead of stranding on a barrier the shard never
	// fills (or vice versa).
	Consistency ConsistencyPolicy
	// Compression is the gradient codec this worker pushes with and
	// expects every shard to decode. The zero value is NoCompression()
	// — raw float32 pushes, bit-for-bit today's wire format. The lossy
	// codecs (Int8Compression, TopKCompression) keep a per-variable
	// error-feedback residual on this worker: the mass a frame rounds
	// away or drops is re-added to the next step's gradient, so the
	// optimizer's total update is preserved over time. The handshake
	// verifies the codec against every shard, so a mixed-codec cluster
	// fails at construction instead of corrupting gradients silently.
	Compression Compression
	// StartStep offsets the worker's local step counter, so a worker
	// resumed alongside a checkpointed cluster keeps walking the same
	// minibatch schedule an uninterrupted run would (the batch window is
	// step*BatchSize mod the shard size). Defaults to 0 — a fresh job.
	StartStep int
}

// Worker runs SGD steps against a (possibly sharded) parameter-server
// cluster: pull the current variables from every shard, compute
// gradients on the next minibatch of the local shard, and push each
// shard its partition of the gradients — blocking on the round barrier
// of synchronous shards, while async shards ack immediately (retrying
// after a re-pull + recompute when a push exceeds the staleness bound).
//
// The fan-out is concurrent across shards with causally consistent
// virtual time: each shard exchange runs on a branch clock seeded at the
// phase start, and the phase completes at the maximum branch time — the
// round completion vtime is the slowest shard's, exactly as a real
// worker waits for its slowest parameter server.
type Worker struct {
	cfg    WorkerConfig
	links  []*Link // one per shard, indexed by shard id; nil while down
	router *Router
	// replica is the local half of a step: session, data shard, gradients.
	replica *Replica

	step int
	// rounds[s] is shard s's barrier generation (sync) or variable
	// version (async) at the last pull; pushes echo it so a shard can
	// reject gradients from a committed/aborted round or from
	// variables beyond the staleness bound.
	rounds []uint64
	// pushWire[s] accumulates the wire-serialization vtime of push
	// frames sent to shard s (see PushWire); pushBytes[s] the raw frame
	// bytes of the same pushes (see PushBytes) — the quantity the
	// gradient codec exists to shrink.
	pushWire  []time.Duration
	pushBytes []int64

	// residuals[name] is the error-feedback state of one variable under
	// a lossy codec: the gradient mass earlier pushes rounded away or
	// dropped, folded into the next push of that variable. Allocated
	// lazily before the first push; slices are only ever mutated by the
	// one shard that owns the variable, and only after an applied push
	// — a staleness-rejected frame leaves the residual untouched, since
	// the parameter server discarded it.
	residuals map[string][]float32

	// staged step state between BeginStep and FinishStep.
	staged      bool
	stagedLoss  float64
	stagedGrads map[string]*tf.Tensor

	// staleRetries counts pushes rejected for exceeding an async
	// shard's staleness bound and retried after a re-pull + recompute.
	staleRetries int
	// dropped[s] counts pushes shard s rejected with the eviction flag —
	// contributions a shrunk barrier committed without; rejoined[s]
	// counts the handshake re-runs that folded this worker back in.
	// Indexed writes from the per-shard fan-out goroutines, so no lock.
	dropped  []int
	rejoined []int

	// LastLoss is the minibatch loss of the most recent step.
	LastLoss float64
	// LastBreakdown is the per-phase virtual time of the most recent
	// step.
	LastBreakdown Breakdown
}

// maxStaleRetries bounds how often one step re-pulls and recomputes
// after staleness rejections before the step fails: under any sane
// schedule a retry computed against freshly pulled variables is within
// every bound K ≥ 0 unless other workers keep racing ahead, and 16
// consecutive losses of that race signal a misconfigured cluster
// rather than bad luck.
const maxStaleRetries = 16

// NewWorker validates cfg, builds the replica's gradient subgraph,
// connects to every parameter-server shard and verifies the shard
// manifests against the locally computed name-hash placement.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("dist: WorkerConfig.Addrs is required")
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.Device == nil {
		cfg.Device = device.NewNull()
	}
	if cfg.Meter.Clock() == nil {
		cfg.Meter = sgx.NewMeter(cfg.Device.Clock(), sgx.DefaultParams())
	}

	cfg.Consistency = cfg.Consistency.normalize()
	if cfg.Consistency.Kind > ConsistencyAsync {
		return nil, fmt.Errorf("dist: unknown consistency kind %d", cfg.Consistency.Kind)
	}
	var err error
	if cfg.Compression, err = cfg.Compression.Canonical(); err != nil {
		return nil, fmt.Errorf("dist: worker %d: %w", cfg.ID, err)
	}

	if cfg.StartStep < 0 {
		return nil, fmt.Errorf("dist: WorkerConfig.StartStep must be ≥ 0, got %d", cfg.StartStep)
	}
	plan, err := NewPlan(cfg.Model, tf.WithDevice(cfg.Device))
	if err != nil {
		return nil, fmt.Errorf("dist: worker %d: %w", cfg.ID, err)
	}
	// The worker holds its replica's session for life: every pull reply
	// is decoded into its variables.
	replica, err := NewReplica(plan, cfg.XS, cfg.YS, cfg.BatchSize, int64(cfg.ID)+1)
	if err == nil {
		err = replica.Hold()
	}
	if err != nil {
		return nil, fmt.Errorf("dist: worker %d: %w", cfg.ID, err)
	}
	router, err := NewRouter(replica.Names(), len(cfg.Addrs))
	if err != nil {
		replica.Close()
		return nil, fmt.Errorf("dist: worker %d shard placement: %w", cfg.ID, err)
	}
	w := &Worker{
		cfg:       cfg,
		links:     make([]*Link, len(cfg.Addrs)),
		router:    router,
		replica:   replica,
		step:      cfg.StartStep,
		rounds:    make([]uint64, len(cfg.Addrs)),
		pushWire:  make([]time.Duration, len(cfg.Addrs)),
		pushBytes: make([]int64, len(cfg.Addrs)),
		dropped:   make([]int, len(cfg.Addrs)),
		rejoined:  make([]int, len(cfg.Addrs)),
	}
	for s := range cfg.Addrs {
		if err := w.Redial(s); err != nil {
			w.Close()
			return nil, err
		}
	}
	return w, nil
}

// Redial opens a new connection to shard s, in place of any it had, and
// says hello on it, on the worker's clock: how a worker takes its seat
// at a shard restarted from its checkpoint.
func (w *Worker) Redial(s int) error {
	if s < 0 || s >= len(w.links) {
		return fmt.Errorf("dist: worker %d has no shard %d", w.cfg.ID, s)
	}
	if w.links[s] != nil {
		w.links[s].Close()
		w.links[s] = nil
	}
	conn, err := w.cfg.Dial("tcp", w.cfg.Addrs[s])
	if err != nil {
		return fmt.Errorf("dist: worker %d dial shard %d at %s: %w", w.cfg.ID, s, w.cfg.Addrs[s], err)
	}
	w.links[s] = w.newLink(s, conn)
	return w.handshake(s, w.cfg.Meter.Clock())
}

// newLink wraps a fresh connection to shard s: its frames' tensors are
// shard s's variables, decoded into the replica's storage of them. The
// shards' sets are disjoint, so the concurrent per-shard pulls need no
// lock.
func (w *Worker) newLink(s int, conn net.Conn) *Link {
	return NewLink(conn, func(name string) *tf.Tensor {
		if w.router.Owner(name) != s {
			return nil
		}
		return w.replica.Variable(name)
	})
}

// handshake verifies that the endpoint dialed for shard s identifies as
// shard s of the expected cluster size, runs the consistency policy
// this worker expects of it, and owns exactly the variables the local
// name-hash placement assigns to it. It runs on the given clock so a
// mid-step rejoin (inside the fan-out) charges its branch, not the
// worker clock directly.
func (w *Worker) handshake(s int, clock *vtime.Clock) error {
	policy, staleness := wirePolicy(w.cfg.Consistency)
	codec, topk := w.cfg.Compression.Wire()
	req := &message{
		Kind:      msgHello,
		Worker:    uint32(w.cfg.ID),
		Shard:     uint32(s),
		Shards:    uint32(len(w.links)),
		Policy:    policy,
		Staleness: staleness,
		Codec:     codec,
		TopK:      topk,
	}
	resp, _, err := w.links[s].RoundTrip(w.cfg.Meter.On(clock), req)
	if err != nil {
		return fmt.Errorf("dist: worker %d handshake with shard %d: %w", w.cfg.ID, s, err)
	}
	if resp.Kind != msgManifest {
		return fmt.Errorf("dist: worker %d handshake with shard %d: unexpected response kind %d", w.cfg.ID, s, resp.Kind)
	}
	if !resp.OK {
		return errors.New(resp.Err)
	}
	if int(resp.Shard) != s || int(resp.Shards) != len(w.links) {
		return fmt.Errorf("dist: worker %d dialed shard %d of %d but the endpoint is shard %d of %d (mis-sharded cluster)",
			w.cfg.ID, s, len(w.links), resp.Shard, resp.Shards)
	}
	if got := policyFromWire(resp.Policy, resp.Staleness); got != w.cfg.Consistency {
		return fmt.Errorf("dist: worker %d expects shard %d to run %v, but it runs %v (mixed-policy cluster)",
			w.cfg.ID, s, w.cfg.Consistency, got)
	}
	if got := CompressionFromWire(resp.Codec, resp.TopK); got != w.cfg.Compression {
		return fmt.Errorf("dist: worker %d pushes with codec %v, but shard %d decodes %v (mixed-codec cluster)",
			w.cfg.ID, w.cfg.Compression, s, got)
	}
	if want := w.router.Names(s); !slices.Equal(resp.Names, want) {
		return fmt.Errorf("dist: worker %d shard %d manifest %v does not match the local placement %v (model or placement mismatch)",
			w.cfg.ID, s, resp.Names, want)
	}
	return nil
}

// Close disconnects from every parameter-server shard and releases the
// local session.
func (w *Worker) Close() error {
	w.replica.Close()
	var err error
	for s, l := range w.links {
		if l == nil {
			continue
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		w.links[s] = nil // its buffers go with the connection
	}
	return err
}

// PushWire returns the cumulative wire-serialization virtual time of the
// gradient pushes sent to each shard, indexed by shard id. It isolates
// the bytes-on-the-wire component of the push phase from barrier wait,
// so experiments can show per-shard wire time shrinking as the variable
// set fans out across more shards.
func (w *Worker) PushWire() []time.Duration { return slices.Clone(w.pushWire) }

// PushBytes returns the cumulative raw frame bytes of the gradient
// pushes sent to each shard, indexed by shard id — the quantity the
// gradient codec shrinks. Unlike PushWire it is independent of the
// bandwidth cost model, so compression experiments can pin exact
// reduction ratios.
func (w *Worker) PushBytes() []int64 { return slices.Clone(w.pushBytes) }

// RunSteps runs n training steps.
func (w *Worker) RunSteps(n int) error {
	for i := 0; i < n; i++ {
		if err := w.Step(); err != nil {
			return err
		}
	}
	return nil
}

// StalenessRetries reports how many pushes were rejected by an async
// shard's staleness bound and retried (re-pull, recompute, re-push)
// over the worker's lifetime.
func (w *Worker) StalenessRetries() int { return w.staleRetries }

// Rejoins reports how many times this worker was folded back into a
// shard's barrier after an eviction — one handshake re-run per
// Evicted push rejection.
func (w *Worker) Rejoins() int {
	var n int
	for _, r := range w.rejoined {
		n += r
	}
	return n
}

// DroppedPushes reports how many shard contributions were dropped
// because a shard's barrier evicted this worker (or committed its
// round without it). Each drop costs the step nothing beyond its own
// wasted work — the next step pulls fresh variables and counts again.
func (w *Worker) DroppedPushes() int {
	var n int
	for _, d := range w.dropped {
		n += d
	}
	return n
}

// Step runs one training step (pull, compute, push) and records its
// loss and per-phase virtual-time breakdown. It is exactly
// BeginStep + FinishStep; against synchronous shards FinishStep blocks
// on the round barrier.
func (w *Worker) Step() error {
	if err := w.BeginStep(); err != nil {
		return err
	}
	return w.FinishStep()
}

// BeginStep runs the pull and compute phases of one step and stages
// the resulting gradients for FinishStep. Splitting the step in two
// lets virtual-time schedulers (the bounded-staleness experiments)
// interleave many workers' phases deterministically in one goroutine —
// only FinishStep against a synchronous shard ever blocks.
func (w *Worker) BeginStep() error {
	if w.staged {
		return fmt.Errorf("dist: worker %d BeginStep called with a step already staged", w.cfg.ID)
	}
	clock := w.cfg.Meter.Clock()

	// Pull: fetch the authoritative variables from every shard and
	// install them in the local session, so this round's gradients are
	// taken at the same point for every worker.
	span := clock.Start()
	if err := w.pull(); err != nil {
		return fmt.Errorf("dist: worker %d pull: %w", w.cfg.ID, err)
	}
	w.LastBreakdown.Pull = span.Stop()

	// Compute: forward/backward over the next minibatch of the shard.
	span = clock.Start()
	loss, grads, err := w.compute()
	if err != nil {
		return fmt.Errorf("dist: worker %d compute: %w", w.cfg.ID, err)
	}
	w.LastBreakdown.Compute = span.Stop()

	w.staged, w.stagedLoss, w.stagedGrads = true, loss, grads
	return nil
}

// FinishStep pushes the gradients staged by BeginStep: each shard gets
// its partition, synchronous shards block on the round barrier, and an
// async shard's staleness rejection triggers a re-pull + recompute +
// re-push of that shard's partition. The phase vtime is stamped only
// after the last shard's ack has been read and merged, so the
// breakdown reports the full wire + barrier cost, not just the send
// side. Staleness-retry work is attributed to the phase it actually is:
// the retry's re-pull extends LastBreakdown.Pull, its recompute extends
// Compute, and only its re-push lands in Push — so the pull / compute /
// push decomposition stays honest for async workloads instead of
// lumping the whole retry loop into the push column.
func (w *Worker) FinishStep() error {
	if !w.staged {
		return fmt.Errorf("dist: worker %d FinishStep called without a staged step", w.cfg.ID)
	}
	// The staged step is consumed up front, success or failure: after a
	// failed push the cluster is in an unknown partial state (an async
	// shard may already have applied its partition of the gradients),
	// so re-running FinishStep with the same staged gradients would
	// double-apply them there. A failed step is not retryable — the
	// next BeginStep starts clean.
	grads, loss := w.stagedGrads, w.stagedLoss
	w.staged, w.stagedGrads = false, nil
	clock := w.cfg.Meter.Clock()

	span := clock.Start()
	stale, err := w.pushGrads(grads)
	if err != nil {
		return fmt.Errorf("dist: worker %d push: %w", w.cfg.ID, err)
	}
	push := span.Stop()
	for attempt := 0; len(stale) > 0; attempt++ {
		if attempt >= maxStaleRetries {
			return fmt.Errorf("dist: worker %d push: shards %v still beyond the staleness bound after %d retries", w.cfg.ID, stale, attempt)
		}
		w.staleRetries += len(stale)
		var rb Breakdown
		if loss, stale, err = w.retryStale(stale, &rb); err != nil {
			return fmt.Errorf("dist: worker %d push retry: %w", w.cfg.ID, err)
		}
		w.LastBreakdown.Pull += rb.Pull
		w.LastBreakdown.Compute += rb.Compute
		push += rb.Push
	}
	w.LastBreakdown.Push = push

	w.LastLoss = loss
	w.step++
	return nil
}

// retryStale handles one round of staleness rejections: re-pull the
// rejected shards (refreshing their variables and version tags),
// recompute the gradients of the same minibatch against the now-fresher
// parameters, and re-push only the rejected partitions. It runs
// sequentially on the worker clock — the backoff a real worker pays for
// losing the staleness race is exactly this extra pull + compute +
// push virtual time — and reports each sub-phase's vtime in rb so the
// caller can extend the matching breakdown columns.
func (w *Worker) retryStale(stale []int, rb *Breakdown) (float64, []int, error) {
	clock := w.cfg.Meter.Clock()
	span := clock.Start()
	for _, s := range stale {
		n, err := w.pullExchange(s, clock)
		if err != nil {
			return 0, nil, err
		}
		w.cfg.Device.Access(n, false)
	}
	rb.Pull = span.Stop()
	span = clock.Start()
	loss, grads, err := w.compute()
	if err != nil {
		return 0, nil, err
	}
	rb.Compute = span.Stop()
	span = clock.Start()
	parts, err := w.router.Partition(grads)
	if err != nil {
		return 0, nil, err
	}
	var still []int
	for _, s := range stale {
		o, err := w.pushExchange(s, clock, parts[s])
		if err != nil {
			return 0, nil, err
		}
		if o == pushStale {
			still = append(still, s)
		}
	}
	rb.Push = span.Stop()
	return loss, still, nil
}

// fanOut runs one protocol exchange against every shard concurrently.
// Each shard's exchange is charged to a branch clock seeded at the
// current worker time; after all exchanges complete the worker clock
// advances to the maximum branch time. With one shard this is arithmetic
// identical to running the exchange directly on the worker clock, so the
// single-PS deployment is exactly the 1-shard case.
func (w *Worker) fanOut(fn func(s int, clock *vtime.Clock) error) error {
	base := w.cfg.Meter.Clock().Now()
	errs := make([]error, len(w.links))
	branches := make([]*vtime.Clock, len(w.links))
	var wg sync.WaitGroup
	for s := range w.links {
		branch := &vtime.Clock{}
		branch.AdvanceTo(base)
		branches[s] = branch
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s, branches[s])
		}(s)
	}
	wg.Wait()
	for _, branch := range branches {
		w.cfg.Meter.Clock().AdvanceTo(branch.Now())
	}
	return errors.Join(errs...)
}

func (w *Worker) pull() error {
	var mu sync.Mutex
	var bytes int64
	err := w.fanOut(func(s int, clock *vtime.Clock) error {
		n, err := w.pullExchange(s, clock)
		if err != nil {
			return err
		}
		mu.Lock()
		bytes += n
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	// Installing the parameters is real memory traffic on this node.
	w.cfg.Device.Access(bytes, false)
	return nil
}

// pullExchange fetches shard s's variables on the given clock (the link
// decodes the reply into the replica's storage), records the shard's
// round generation / variable version and returns the installed byte
// count.
func (w *Worker) pullExchange(s int, clock *vtime.Clock) (int64, error) {
	l := w.links[s]
	if l == nil {
		return 0, fmt.Errorf("shard %d: not connected", s)
	}
	resp, _, err := l.RoundTrip(w.cfg.Meter.On(clock), &message{Kind: msgPull, Worker: uint32(w.cfg.ID)})
	if err != nil {
		return 0, err
	}
	if resp.Kind != msgVars {
		return 0, fmt.Errorf("shard %d: unexpected response kind %d", s, resp.Kind)
	}
	w.rounds[s] = resp.Round
	var bytes int64
	for _, t := range resp.Vars {
		bytes += t.Bytes()
	}
	return bytes, nil
}

// compute runs the replica's step at the worker's step counter and keys
// the gradients by variable name, which is how they are partitioned.
func (w *Worker) compute() (float64, map[string]*tf.Tensor, error) {
	loss, out, err := w.replica.Step(w.step)
	if err != nil {
		return 0, nil, err
	}
	grads := make(map[string]*tf.Tensor, len(out))
	for i, name := range w.replica.Names() {
		grads[name] = out[i]
	}
	return loss, grads, nil
}

// pushGrads partitions the gradients across shards by the name-hash
// placement and fans the pushes out concurrently: synchronous shards
// block until their round barrier releases (or aborts), async shards
// ack immediately. It returns the shards that rejected their push for
// staleness, for the caller to retry.
func (w *Worker) pushGrads(grads map[string]*tf.Tensor) ([]int, error) {
	parts, err := w.router.Partition(grads)
	if err != nil {
		return nil, err
	}
	// Allocate the error-feedback residuals before the concurrent
	// fan-out: afterwards each shard only mutates the slice contents of
	// the variables it owns, so no map write ever races.
	if w.cfg.Compression.Kind != CompressNone {
		if w.residuals == nil {
			w.residuals = make(map[string][]float32, len(grads))
		}
		for name, g := range grads {
			if w.residuals[name] == nil {
				w.residuals[name] = make([]float32, len(g.Floats()))
			}
		}
	}
	outcomes := make([]pushOutcome, len(w.links))
	err = w.fanOut(func(s int, clock *vtime.Clock) error {
		var err error
		outcomes[s], err = w.pushExchange(s, clock, parts[s])
		return err
	})
	if err != nil {
		return nil, err
	}
	var stale []int
	for s, o := range outcomes {
		if o == pushStale {
			stale = append(stale, s)
		}
	}
	return stale, nil
}

// pushOutcome classifies a shard's answer to one gradient push.
type pushOutcome uint8

const (
	// pushApplied: the shard accepted the contribution.
	pushApplied pushOutcome = iota
	// pushStale: an async shard rejected the push for staleness; the
	// caller re-pulls, recomputes and re-pushes.
	pushStale
	// pushDropped: a synchronous shard evicted this worker or committed
	// its round without it. The contribution is gone — not retried; the
	// worker has already re-run the handshake to rejoin, and its next
	// step pulls fresh variables and counts again.
	pushDropped
)

// pushExchange sends shard s its gradient partition on the given clock
// and reads the ack. A staleness rejection reports pushStale (the
// caller retries after a re-pull + recompute); an eviction reports
// pushDropped after re-running the rejoin handshake; every other
// rejection is an error. Under a lossy codec the partition is
// compressed with the error-feedback residual folded in, and the new
// residual — the mass this frame drops — is committed only on an
// applied push: a rejected frame was discarded by the parameter server,
// so its unsent mass must not be double-counted when a later push
// re-encodes a fresh gradient.
func (w *Worker) pushExchange(s int, clock *vtime.Clock, vars map[string]*tf.Tensor) (pushOutcome, error) {
	l := w.links[s]
	if l == nil {
		return pushApplied, fmt.Errorf("shard %d: not connected", s)
	}
	req := &message{
		Kind:   msgPush,
		Worker: uint32(w.cfg.ID),
		Round:  w.rounds[s],
		Step:   uint64(w.step),
	}
	var pending map[string][]float32
	if w.cfg.Compression.Kind == CompressNone {
		req.Vars = vars
	} else {
		req.Grads = make(map[string][]byte, len(vars))
		pending = make(map[string][]float32, len(vars))
		for name, g := range vars {
			blob, newRes, err := w.cfg.Compression.compress(g, w.residuals[name])
			if err != nil {
				return pushApplied, fmt.Errorf("shard %d: compress %q: %w", s, name, err)
			}
			req.Grads[name] = blob
			pending[name] = newRes
		}
	}
	meter := w.cfg.Meter.On(clock)
	resp, n, err := l.RoundTrip(meter, req)
	if n > 0 {
		// Sent, whatever became of the answer.
		w.pushWire[s] += meter.FrameTime(n)
		w.pushBytes[s] += int64(n)
	}
	if err != nil {
		return pushApplied, err
	}
	if resp.Kind != msgAck {
		return pushApplied, fmt.Errorf("shard %d: unexpected response kind %d", s, resp.Kind)
	}
	if !resp.OK {
		if resp.Stale {
			return pushStale, nil
		}
		if resp.Evicted {
			// The barrier went on without us. Drop the contribution and
			// rejoin through the handshake; the shard folds us back in
			// at the next round boundary.
			w.dropped[s]++
			if err := w.handshake(s, clock); err != nil {
				return pushDropped, fmt.Errorf("shard %d rejoin: %w", s, err)
			}
			w.rejoined[s]++
			return pushDropped, nil
		}
		return pushApplied, errors.New(resp.Err)
	}
	// Applied: commit this partition's residuals in place (the slices
	// were allocated before the fan-out; only this shard touches them).
	for name, res := range pending {
		copy(w.residuals[name], res)
	}
	return pushApplied, nil
}
