package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
)

// PSConfig configures a ParameterServer.
type PSConfig struct {
	// Listener accepts worker connections. Required; typically a
	// container listener so the network shield's TLS wraps every
	// connection. The parameter server owns it and closes it on Close.
	Listener net.Listener
	// Vars seeds the authoritative variable state (see InitialVars).
	// Required and non-empty: pass the full model variable set — the
	// server retains only the subset the name-hash placement assigns to
	// its shard. The map is deep-copied; callers keep ownership of their
	// tensors.
	Vars map[string]*tf.Tensor
	// Workers is the synchronous round size: a round commits only after
	// this many gradient pushes. Required, ≥ 1.
	Workers int
	// Shard and Shards place this server in a sharded parameter-server
	// cluster: it is shard Shard (0-based) of Shards, owning the
	// variables ShardFor assigns to it. The zero value (0 of 1, after
	// normalization) is the classic single parameter server; the
	// single-PS deployment is exactly the 1-shard case.
	Shard  int
	Shards int
	// Consistency selects this shard's commit discipline. The zero
	// value is Sync() — barrier rounds of Workers pushes, averaged and
	// applied together, exactly today's behavior. Async(K) instead
	// applies every push the moment it arrives, scaled by LR/Workers so
	// a full wave of async pushes moves the variables by the same total
	// magnitude as one synchronous averaged round, and rejects (for
	// worker-side retry) any push whose pulled variable version lags
	// the shard's current version by more than K. Workers keeps its
	// meaning as the cluster's worker count; in async mode it is the
	// averaging scale, not a barrier size, and a RoundTimeout is refused
	// because nothing ever blocks.
	Consistency ConsistencyPolicy
	// Compression selects the gradient codec this shard decodes on the
	// push path. The zero value is NoCompression() — raw float32
	// gradients, bit-for-bit today's wire format. Int8Compression()
	// expects per-tensor symmetric int8 frames (~4× smaller) and
	// TopKCompression(f) sparse index+value frames; both lossy codecs
	// rely on the workers' error-feedback residuals, so the shard only
	// decodes — no state is kept here. The handshake carries the codec
	// both ways and a mismatched worker fails at construction.
	Compression Compression
	// LR is the learning rate applied to averaged gradients.
	LR float64
	// Meter charges the PS node's clock, which message stamps keep causal
	// with every worker's, so it ends at the end-to-end latency. The zero
	// value is a private clock at sgx.DefaultParams.
	Meter sgx.Meter
	// RoundTimeout, when positive, is how long, in virtual time, a
	// synchronous round may stay incomplete after its first gradient push
	// arrives (the paper's §3.2 elasticity). At that deadline (see seat)
	// the seats that never pushed are evicted as dead, the barrier
	// shrinks to the survivors, the shard clock moves to the deadline and
	// the round commits from the gradients it has, averaged over the
	// contributors. An evicted worker rejoins by re-running the
	// msgHello/msgManifest handshake and is folded back into the barrier
	// at the next round boundary. A member that stays connected and sends
	// nothing holds the deadline back until the hang guard (hangGuard)
	// closes its connection. Zero waits for every seat. An asynchronous
	// shard never blocks and refuses one.
	RoundTimeout time.Duration
	// CheckpointEvery, with CheckpointWrite, snapshots the shard every
	// CheckpointEvery committed rounds: the encoded Checkpoint is
	// handed to CheckpointWrite before the round's barrier releases, so
	// a crash after round r either left the full round-r snapshot or
	// none. A write error aborts the round. CheckpointWrite must not
	// keep data after it returns (the io.Writer rule): the shard
	// encodes every snapshot into the one buffer it keeps.
	CheckpointEvery int
	CheckpointWrite func(data []byte) error
	// Resume seeds the shard from a Checkpoint instead of the fresh
	// Vars values: variables, committed-round count and barrier
	// generation continue where the snapshot left off. The checkpoint
	// must carry exactly this shard's variable partition (same
	// placement, same shapes).
	Resume *Checkpoint
	// ApplyMeter, when set, is charged with the gradient-averaging and
	// SGD-apply work (FLOPs, bytes) of each committed round, so the PS
	// node's device sees the same workload shape as the paper's.
	ApplyMeter func(flops, bytes int64)
}

// ParameterServer holds the authoritative model variables and applies
// synchronously averaged gradients, one committed round per Workers
// pushes.
type ParameterServer struct {
	cfg PSConfig

	// manifest is the sorted list of variable names this shard owns,
	// exchanged during the connection handshake. Immutable after New.
	manifest []string

	mu     sync.Mutex
	vars   map[string]*tf.Tensor
	rounds int
	closed bool
	// ckpt holds the last snapshot's encoding; the next is encoded
	// over it.
	ckpt []byte

	// The barrier (sync mode): round admits the pushes, whose
	// contributions are staged per pusher and summed at commit in
	// ascending worker-id order, so the float accumulation — and
	// therefore the whole trajectory — is independent of push arrival
	// order (bit-reproducible runs, which the elasticity and
	// checkpoint/resume tests pin). round's Need is the barrier's seats
	// (cfg.Workers, less the evicted, plus the rejoined); pending holds
	// the evicted workers that re-ran the handshake mid-round, seated
	// again at the round's boundary. gen numbers the rounds; in async
	// mode it is the variable version, bumped on every applied push, and
	// the staleness bound is measured against it. due is the open round's
	// deadline (see RoundTimeout).
	round    Round
	pending  map[uint32]bool
	contribs []contribution
	waiters  []*seat
	gen      uint64
	due      time.Duration
	// seated holds the connections that said hello, which an eviction
	// and the hang guard reach.
	seated map[*seat]bool

	// steps tracks each worker's latest pushed local step (async
	// accounting; sync pushes record it too, it just never gates
	// anything there).
	steps map[uint32]uint64
	stats PSStats

	srv *wire.Server
	// turns serves a synchronous shard's frames in the order they were
	// sent (see seat); nil on an asynchronous one. deadline is its round
	// deadline's actor, given a round timeout. seats numbers the
	// connections it orders, and the seats they take.
	turns    *vtime.Scheduler
	deadline *vtime.Actor
	seats    atomic.Uint64
}

// hangGuard is how long, on the wall clock, a shard with a round timeout
// lets a frame, or a push's answer, wait for its turn before it closes
// the connections of the seats that hold the turn back (guard). A worker
// that stays connected and sends nothing holds the order, and with it
// the deadline, on no virtual clock; once its seat has gone, the
// deadline evicts it. The guard itself evicts no one. A variable, so
// that a test can shorten it.
var hangGuard = time.Minute

// A seat is one connection's place at the shard: at its barrier, and in
// the order of a synchronous shard, which serves its workers' frames in
// the order they were sent, not in the order the host delivers them: by
// (virtual arrival, worker, seat). One frame is
// served at a time, and its answer is sent, before the next is started,
// so the charges one frame makes on the shard's clock never interleave
// with another's.
//
// A connection takes a seat once its hello is answered, and from then on
// speaks only for the worker its hello named: a push before a hello, or
// in another worker's name, is refused and counts for nothing. A seated
// frame is served once no seat can still send an earlier one: every
// other seat has its next frame read up to its stamp, is parked at the
// barrier, or cannot send before this frame's arrival, since a worker
// sends its next frame only after it has read the shard's answer to its
// last, a round trip after that answer's stamp (served). The barrier's
// commit answers every pusher at the commit's time, in worker order. A
// frame from a connection without a seat — a hello, or a peer's that
// never said one — is served alone but out of order, at vtime.Anytime:
// the shard cannot know who else may come. So the job's workers say
// hello one after another before any of them pulls (TrainDistributed,
// train-sync's set-up), and from then on the shard's clock, every stamp
// it sends and every commit are a function of the frames' stamps alone.
//
// A round timeout is one more actor, the round's deadline, whose turn
// is at the first push's arrival plus the timeout, after every frame
// stamped as early (timeout): by then every other seat is parked, gone,
// or holds a later frame. An evicted worker's frames then take the place
// just after the deadline's until its hello seats it again, so neither
// its late frame nor its rejoin waits on the survivors' next frames. A
// seat that sends nothing holds every later turn back; on a shard with a
// round timeout, the hang guard closes it. An asynchronous shard serves
// frames as the host delivers them.
type seat struct {
	turn   *vtime.Actor
	conn   net.Conn
	seated bool
	worker uint32     // the worker its hello named, once seated
	answer chan error // the barrier's answer to the connection's push
	// late is the place of the seat's frames while its worker is
	// evicted: just after the deadline that evicted it. Zero otherwise.
	late atomic.Int64
}

// ask asks for the turn of a frame, or of the barrier's answer, that
// arrives at at. It asks again if an eviction moved the seat meanwhile.
func (s *seat) ask(at time.Duration) {
	if !s.seated {
		at = vtime.Anytime
	}
	for late := int64(-1); late != s.late.Load(); {
		if late = s.late.Load(); late != 0 {
			at = time.Duration(late)
		}
		s.turn.Ask(at)
	}
}

// served ends the turn of a frame whose answer was stamped sent.
func (ps *ParameterServer) served(s *seat, sent time.Duration) {
	switch late := s.late.Load(); {
	case !s.seated:
		s.turn.Park()
	case late != 0:
		s.turn.Idle(time.Duration(late))
	default:
		s.turn.Idle(ps.cfg.Meter.Arrival(ps.cfg.Meter.Arrival(sent)))
	}
}

// sit seats the connection of s, whose hello from worker is answered in
// its turn. The seat joins before the stranger leaves, so no waiter can
// go before the seat's first frame may.
func (ps *ParameterServer) sit(s *seat, worker uint32) {
	turn := ps.turns.Join(uint64(worker)<<32 | ps.seats.Add(1))
	s.turn.Leave()
	s.turn, s.seated, s.worker = turn, true, worker
	ps.mu.Lock()
	ps.seated[s] = true
	ps.mu.Unlock()
}

// contribution is one worker's staged gradient partition of the
// current synchronous round.
type contribution struct {
	worker uint32
	vars   map[string]*tf.Tensor
}

// PSStats counts a shard's elasticity events.
type PSStats struct {
	// Evictions is the number of barrier seats removed by round
	// deadlines — one per worker declared dead.
	Evictions int
	// Rejoins is the number of evicted workers folded back into the
	// barrier after re-running the handshake.
	Rejoins int
	// ShrunkRounds is the number of rounds committed by a shrunk
	// barrier — rounds that timed out and went on without the dead.
	ShrunkRounds int
}

// errStalePush rejects an async push whose gradients were computed
// against variables more than Staleness versions behind. It travels as
// the Stale wire flag, so workers retry (re-pull, recompute, re-push)
// instead of aborting.
var errStalePush = errors.New("dist: push exceeds the staleness bound")

// NewParameterServer validates cfg, deep-copies the seed variables and
// starts accepting worker connections.
func NewParameterServer(cfg PSConfig) (*ParameterServer, error) {
	if cfg.Listener == nil {
		return nil, errors.New("dist: PSConfig.Listener is required")
	}
	if len(cfg.Vars) == 0 {
		return nil, errors.New("dist: PSConfig.Vars must be non-empty")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: PSConfig.Workers must be ≥ 1, got %d", cfg.Workers)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return nil, fmt.Errorf("dist: PSConfig places shard %d in a cluster of %d", cfg.Shard, cfg.Shards)
	}
	if cfg.Meter.Clock() == nil {
		cfg.Meter = sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	}
	cfg.Consistency = cfg.Consistency.normalize()
	if cfg.Consistency.Kind > ConsistencyAsync {
		return nil, fmt.Errorf("dist: unknown consistency kind %d", cfg.Consistency.Kind)
	}
	var err error
	if cfg.Compression, err = cfg.Compression.Canonical(); err != nil {
		return nil, err
	}
	if cfg.RoundTimeout > 0 && cfg.Consistency.Kind != ConsistencySync {
		return nil, errors.New("dist: PSConfig.RoundTimeout requires the synchronous barrier (async shards never block on the dead)")
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("dist: PSConfig.CheckpointEvery must be ≥ 0, got %d", cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointWrite == nil {
		return nil, errors.New("dist: PSConfig.CheckpointEvery requires CheckpointWrite")
	}
	ps := &ParameterServer{
		cfg:     cfg,
		vars:    make(map[string]*tf.Tensor, len(cfg.Vars)),
		steps:   make(map[uint32]uint64),
		round:   NewRound(cfg.Workers),
		pending: make(map[uint32]bool),
		seated:  make(map[*seat]bool),
	}
	if cfg.Consistency.Kind == ConsistencySync {
		ps.turns = new(vtime.Scheduler)
	}
	if cfg.RoundTimeout > 0 {
		// Last at its time: every frame stamped as early goes first.
		ps.deadline = ps.turns.Join(math.MaxUint64)
		ps.deadline.Park()
	}
	for name, t := range ShardVars(cfg.Vars, cfg.Shard, cfg.Shards) {
		if t == nil || t.DType() != tf.Float32 {
			return nil, fmt.Errorf("dist: variable %q must be a Float32 tensor", name)
		}
		ps.vars[name] = t.Clone()
		ps.manifest = append(ps.manifest, name)
	}
	sort.Strings(ps.manifest)
	if cfg.Resume != nil {
		if err := ps.resume(cfg.Resume); err != nil {
			return nil, err
		}
	}
	if ps.deadline != nil {
		go ps.deadlines()
	}
	ps.srv = wire.Serve(cfg.Listener, ps.serve)
	return ps, nil
}

// resume seeds the freshly constructed shard from a checkpoint: the
// snapshot must carry exactly this shard's variable partition, and the
// round count and barrier generation continue from its values.
func (ps *ParameterServer) resume(c *Checkpoint) error {
	if c.Shard != ps.cfg.Shard || c.Shards != ps.cfg.Shards {
		return fmt.Errorf("dist: checkpoint is shard %d of %d, this server is shard %d of %d",
			c.Shard, c.Shards, ps.cfg.Shard, ps.cfg.Shards)
	}
	if len(c.Vars) != len(ps.vars) {
		return fmt.Errorf("dist: checkpoint carries %d variables, shard %d owns %d", len(c.Vars), ps.cfg.Shard, len(ps.vars))
	}
	for name, t := range c.Vars {
		v, ok := ps.vars[name]
		if !ok {
			return fmt.Errorf("dist: checkpoint variable %q is not placed on shard %d", name, ps.cfg.Shard)
		}
		if t.DType() != tf.Float32 || !t.Shape().Equal(v.Shape()) {
			return fmt.Errorf("dist: checkpoint variable %q has shape %v, shard owns %v", name, t.Shape(), v.Shape())
		}
	}
	ps.vars = CloneVars(c.Vars)
	ps.rounds = c.Rounds
	ps.gen = c.Gen
	return nil
}

// Stats snapshots the shard's elasticity counters.
func (ps *ParameterServer) Stats() PSStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.stats
}

// Checkpoint snapshots the shard's restart state: the current
// variables, the committed-round count and the barrier generation.
// Feed it (or its EncodeCheckpoint encoding) to PSConfig.Resume to
// continue a killed shard exactly where the snapshot left off.
func (ps *ParameterServer) Checkpoint() *Checkpoint {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return &Checkpoint{
		Shard:  ps.cfg.Shard,
		Shards: ps.cfg.Shards,
		Rounds: ps.rounds,
		Gen:    ps.gen,
		Vars:   CloneVars(ps.vars),
	}
}

// Rounds reports how many commits the shard has applied: synchronous
// barrier rounds in sync mode, individual applied pushes in async mode
// (where every push is its own commit).
func (ps *ParameterServer) Rounds() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.rounds
}

// WorkerSteps snapshots the latest local step each worker's push has
// reported — the per-worker progress view the bounded-staleness
// experiments read. In async mode an entry is recorded only when the
// push is applied; in sync mode it is recorded when the push joins the
// round, so a later abort of that round does not roll it back.
func (ps *ParameterServer) WorkerSteps() map[int]uint64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make(map[int]uint64, len(ps.steps))
	for w, s := range ps.steps {
		out[int(w)] = s
	}
	return out
}

// Vars returns a snapshot of the current variable values.
func (ps *ParameterServer) Vars() map[string]*tf.Tensor {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return CloneVars(ps.vars)
}

// Close stops the server: the listener and all worker connections are
// closed and any workers blocked on an incomplete round receive an
// error.
func (ps *ParameterServer) Close() error {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil
	}
	ps.closed = true
	if len(ps.contribs) > 0 {
		ps.finishRoundLocked(errors.New("dist: parameter server closed"))
	}
	ps.turns.Close()
	ps.mu.Unlock()
	return ps.srv.Close()
}

// serve runs one worker's connection. Its link's frame buffers, and the
// gradient tensors this worker's pushes are decoded into round after
// round, belong to the connection and go with it. On a shard that keeps
// the order (seat), each frame is read up to its stamp, waits its turn,
// and is read on, served and answered in it.
func (ps *ParameterServer) serve(conn net.Conn) {
	grads := make(map[string]*tf.Tensor)
	l := NewLink(conn, func(name string) *tf.Tensor {
		// ps.vars is structurally immutable after construction, so the
		// shape lookup needs no lock.
		if v, ok := ps.vars[name]; ok && grads[name] == nil {
			grads[name] = tf.NewTensor(tf.Float32, v.Shape())
		}
		return grads[name]
	})
	// A stranger until its hello is answered, parked between frames.
	s := &seat{turn: ps.turns.Join(ps.seats.Add(1)), conn: conn, answer: make(chan error, 1)}
	s.turn.Park()
	defer func() {
		ps.mu.Lock()
		delete(ps.seated, s)
		ps.mu.Unlock()
		s.turn.Leave()
	}()
	for {
		stamp, err := l.next()
		var msg *message
		if err == nil {
			s.ask(ps.cfg.Meter.Arrival(stamp))
			stop := ps.guard()
			s.turn.Wait()
			stop()
			msg, err = l.rest(ps.cfg.Meter)
		}
		var resp *message
		if err == nil && (msg.Kind == msgHello || msg.Kind == msgPush) {
			resp = Refusal("dist", "worker", s.seated, s.worker, msg)
		}
		switch {
		case errors.Is(err, errVars):
			// A push of an unknown variable or of a wrong shape is
			// answered, not hung up on; none of it reached grads.
			resp = &message{Kind: msgAck, Err: err.Error()}
		case err != nil:
			return
		case resp != nil:
		case msg.Kind == msgHello:
			resp = ps.handshake(msg)
		case msg.Kind == msgPull:
			resp = &message{Kind: msgVars, OK: true}
		case msg.Kind == msgPush:
			resp = &message{Kind: msgAck, OK: true}
			if err := ps.push(msg, s); err != nil {
				resp.OK = false
				resp.Stale = errors.Is(err, errStalePush)
				resp.Evicted = errors.Is(err, ErrLate)
				resp.Err = err.Error()
			}
		default:
			resp = &message{Kind: msgAck, Err: fmt.Sprintf("dist: unknown message kind %d", msg.Kind)}
		}
		var frame []byte
		if resp.Kind == msgVars {
			// A pull is answered from the variables themselves, encoded
			// under the lock: the one model-sized copy the reply needs.
			ps.mu.Lock()
			resp.Vars, resp.Round = ps.vars, ps.gen
			frame = l.encode(resp)
			ps.mu.Unlock()
		} else {
			frame = l.encode(resp)
		}
		if _, err := l.flush(ps.cfg.Meter, frame); err != nil {
			return
		}
		if msg != nil && msg.Kind == msgHello && resp.OK {
			if !s.seated {
				ps.sit(s, msg.Worker)
			}
			s.late.Store(0)
		}
		ps.served(s, l.sent)
	}
}

// handshake answers a worker's msgHello with this shard's identity and
// variable manifest. The worker states which shard it believes it dialed
// and how many shards it thinks the cluster has; a mismatch — a worker
// pointed at the wrong endpoint, or configured for a different shard
// count than the running cluster — is reported explicitly so the worker
// fails fast instead of hanging on a barrier that can never fill.
func (ps *ParameterServer) handshake(msg *message) *message {
	policy, staleness := wirePolicy(ps.cfg.Consistency)
	codec, topk := ps.cfg.Compression.Wire()
	resp := &message{
		Kind:      msgManifest,
		Shard:     uint32(ps.cfg.Shard),
		Shards:    uint32(ps.cfg.Shards),
		Policy:    policy,
		Staleness: staleness,
		Codec:     codec,
		TopK:      topk,
		Names:     ps.manifest,
		OK:        true,
	}
	if int(msg.Shards) != ps.cfg.Shards {
		resp.OK = false
		resp.Err = fmt.Sprintf("dist: worker %d expects a %d-shard cluster, this cluster has %d shards",
			msg.Worker, msg.Shards, ps.cfg.Shards)
	} else if int(msg.Shard) != ps.cfg.Shard {
		resp.OK = false
		resp.Err = fmt.Sprintf("dist: worker %d dialed this endpoint as shard %d, but it is shard %d",
			msg.Worker, msg.Shard, ps.cfg.Shard)
	} else if want := policyFromWire(msg.Policy, msg.Staleness); want != ps.cfg.Consistency {
		resp.OK = false
		resp.Err = fmt.Sprintf("dist: worker %d expects shard %d to run %v, but it runs %v (mixed-policy cluster)",
			msg.Worker, ps.cfg.Shard, want, ps.cfg.Consistency)
	} else if want := CompressionFromWire(msg.Codec, msg.TopK); want != ps.cfg.Compression {
		resp.OK = false
		resp.Err = fmt.Sprintf("dist: worker %d pushes with codec %v, but shard %d decodes %v (mixed-codec cluster)",
			msg.Worker, want, ps.cfg.Shard, ps.cfg.Compression)
	} else if int64(msg.Worker) >= int64(ps.cfg.Workers) {
		resp.OK = false
		resp.Err = fmt.Sprintf("dist: worker %d says hello to a shard of %d workers", msg.Worker, ps.cfg.Workers)
	}
	if resp.OK && ps.cfg.Consistency.Kind == ConsistencySync {
		ps.mu.Lock()
		r := &ps.round
		if !r.Members[msg.Worker] && !ps.pending[msg.Worker] && len(r.Members) >= r.Need {
			// The hello of a worker without a seat, when every seat is
			// taken, is a rejoin: an evicted worker's, or one whose seat
			// went in a timeout before it said hello (a shard restarted
			// from checkpoint forgets who sat where), which must not race
			// the others for one of theirs. A quiescent barrier (no
			// pushes in flight) folds it back immediately; mid-round it
			// waits for the boundary, so the round in progress keeps the
			// size its timeout math assumed.
			if len(ps.contribs) == 0 {
				r.Members[msg.Worker] = true
				r.Need++
				ps.stats.Rejoins++
			} else {
				ps.pending[msg.Worker] = true
			}
			resp.Evicted = true // acknowledge the rejoin explicitly
		} else if !ps.pending[msg.Worker] {
			r.Members[msg.Worker] = true
		}
		ps.mu.Unlock()
	}
	return resp
}

// decodePush rebuilds dense gradients from a compressed push in place:
// msg.Grads is decoded against the shard's authoritative variable
// shapes into msg.Vars, so the barrier and apply paths see exactly what
// an uncompressed push would carry. A push whose framing disagrees with
// the negotiated codec — raw tensors on a compressed cluster, blobs on
// an uncompressed one, or a blob under the wrong codec kind — is an
// explicit error: the handshake should have made it impossible, so it
// signals a client bypassing negotiation. ps.vars is structurally
// immutable after construction, so the shape lookups need no lock.
func (ps *ParameterServer) decodePush(msg *message) error {
	if ps.cfg.Compression.Kind == CompressNone {
		if len(msg.Grads) > 0 {
			return fmt.Errorf("dist: worker %d pushed compressed gradients to an uncompressed shard", msg.Worker)
		}
		return nil
	}
	if len(msg.Vars) > 0 {
		return fmt.Errorf("dist: worker %d pushed raw gradients to a shard running codec %v", msg.Worker, ps.cfg.Compression)
	}
	vars := make(map[string]*tf.Tensor, len(msg.Grads))
	for name, blob := range msg.Grads {
		v, ok := ps.vars[name]
		if !ok {
			return fmt.Errorf("dist: worker %d pushed gradient for unknown variable %q", msg.Worker, name)
		}
		if len(blob) > 0 && CompressionKind(blob[0]) != ps.cfg.Compression.Kind {
			return fmt.Errorf("dist: worker %d pushed a %d-codec blob for %q, shard decodes %v",
				msg.Worker, blob[0], name, ps.cfg.Compression)
		}
		t, err := decompressGrad(blob, v.Shape())
		if err != nil {
			return fmt.Errorf("dist: worker %d gradient for %q: %w", msg.Worker, name, err)
		}
		vars[name] = t
	}
	msg.Vars, msg.Grads = vars, nil
	return nil
}

// push routes one worker's gradient push to the shard's consistency
// policy: the synchronous barrier (block until the round commits or
// aborts) or the asynchronous immediate apply. The gradients need no
// check here, so one malformed push cannot poison the round for
// everyone: a raw push was decoded into tensors shaped like the shard's
// variables or refused (serve, decodeInto), a compressed one is decoded
// against the variables' shapes by decodePush. s is the pushing
// connection's seat: a push gives its turn up at the barrier, and its
// answer takes one.
func (ps *ParameterServer) push(msg *message, s *seat) error {
	if err := ps.decodePush(msg); err != nil {
		return err
	}
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return errors.New("dist: parameter server closed")
	}
	if ps.cfg.Consistency.Kind == ConsistencyAsync {
		err := ps.pushAsyncLocked(msg)
		ps.mu.Unlock()
		return err
	}
	// A push must come from a member of the barrier and belong to the
	// generation its parameters were pulled from. A worker the barrier
	// evicted, or whose round went on without it while it was computing,
	// pushed a gradient against stale parameters that must not seed the
	// next round: it is answered ErrLate, the retryable eviction signal,
	// and re-runs the handshake to count again from its next step.
	if err := ps.round.Admit(msg.Worker, msg.Round, ps.gen); err != nil {
		ps.mu.Unlock()
		if errors.Is(err, ErrTwice) {
			return fmt.Errorf("dist: worker %d pushed twice into round generation %d", msg.Worker, msg.Round)
		}
		return fmt.Errorf("%w: worker %d pushed for round generation %d, current is %d",
			ErrLate, msg.Worker, msg.Round, ps.gen)
	}
	ps.steps[msg.Worker] = msg.Step
	ps.contribs = append(ps.contribs, contribution{worker: msg.Worker, vars: msg.Vars})
	ps.waiters = append(ps.waiters, s)
	if len(ps.contribs) == 1 && ps.deadline != nil {
		ps.due = ps.cfg.Meter.Clock().Now() + ps.cfg.RoundTimeout
		ps.deadline.Ask(ps.due)
	}
	if ps.round.Push(msg.Worker) {
		ps.commitLocked()
	} else {
		s.turn.Park()
	}
	ps.mu.Unlock()
	stop := ps.guard()
	err := <-s.answer
	s.turn.Done() // the commit's, which asked for every answer's turn
	s.turn.Wait()
	stop()
	return err
}

// guard arms the hang guard (hangGuard) over a wait for a turn, on a
// shard with a round timeout, and returns what disarms it. When it fires
// it closes the connections of the seats that hold the next turn back,
// so they leave.
func (ps *ParameterServer) guard() (stop func() bool) {
	if ps.deadline == nil {
		return noGuard
	}
	//securetf:allow nowallclock the hang guard: a seat that sends nothing holds the order back on no virtual clock
	return time.AfterFunc(hangGuard, func() {
		holders := ps.turns.Holders()
		ps.mu.Lock()
		defer ps.mu.Unlock()
		for s := range ps.seated {
			if slices.Contains(holders, s.turn) {
				s.conn.Close()
			}
		}
	}).Stop
}

func noGuard() bool { return false }

// pushAsyncLocked is the bounded-staleness commit path: the push is
// applied the moment it arrives — no barrier, nothing blocks — unless
// the variables have moved more than Staleness versions past the ones
// the gradient was computed from, in which case the push is rejected
// with the retryable stale error and the worker re-pulls and
// recomputes. Each applied push is scaled by LR/Workers, the same
// per-contribution magnitude as a synchronous averaged round, so async
// is a relaxation of the same optimizer rather than a different one.
func (ps *ParameterServer) pushAsyncLocked(msg *message) error {
	if msg.Round > ps.gen {
		return fmt.Errorf("dist: worker %d pushed against variable version %d, but the shard is only at %d", msg.Worker, msg.Round, ps.gen)
	}
	if k := ps.cfg.Consistency.Staleness; k >= 0 && ps.gen-msg.Round > uint64(k) {
		return fmt.Errorf("%w: worker %d pushed against variable version %d, current is %d (bound %d)",
			errStalePush, msg.Worker, msg.Round, ps.gen, k)
	}
	scale := float32(ps.cfg.LR) / float32(ps.cfg.Workers)
	var elems int64
	for name, g := range msg.Vars {
		kernels.ApplySGD(ps.vars[name].Floats(), g.Floats(), scale)
		elems += int64(len(g.Floats()))
	}
	if ps.cfg.ApplyMeter != nil {
		// Scale and subtract one contribution: 2 FLOPs per element.
		// Traffic: read the gradient, read+write the variables.
		ps.cfg.ApplyMeter(elems*2, elems*4*3)
	}
	ps.steps[msg.Worker] = msg.Step
	ps.rounds++
	ps.gen++
	return ps.maybeCheckpointLocked(ps.gen)
}

// commitLocked averages the round's gradients, applies them at the
// learning rate, charges the apply meter and releases the barrier. The
// averaging divisor is the number of contributors — cfg.Workers on a
// full barrier, the survivor count on a shrunk one — so the update
// magnitude always stays an average.
func (ps *ParameterServer) commitLocked() {
	contributors := len(ps.contribs)
	// lr/contributors as the pinned trajectories have it: the reciprocal
	// rounded to float32, then its product with the rate.
	scale := float32(ps.cfg.LR) * (float32(1) / float32(contributors))
	// Sum in ascending worker-id order, not arrival order: float
	// addition is not associative, so a schedule-dependent order would
	// make trajectories irreproducible.
	sort.SliceStable(ps.contribs, func(i, j int) bool { return ps.contribs[i].worker < ps.contribs[j].worker })
	// The first contribution to carry a variable is the accumulator:
	// the round consumes its contributions, and the workers' next pushes
	// overwrite them.
	sum := make(map[string]*tf.Tensor, len(ps.vars))
	for _, c := range ps.contribs {
		for name, g := range c.vars {
			acc, ok := sum[name]
			if !ok {
				sum[name] = g
				continue
			}
			dst, src := acc.Floats(), g.Floats()
			for i := range dst {
				dst[i] += src[i]
			}
		}
	}
	var elems int64
	for name, acc := range sum {
		kernels.ApplySGD(ps.vars[name].Floats(), acc.Floats(), scale)
		elems += int64(len(acc.Floats()))
	}
	if ps.cfg.ApplyMeter != nil {
		// Sum of the contributions (done incrementally on push), scale
		// and subtract: ~(contributors+2) FLOPs per element. Traffic:
		// read every contribution once, read+write the variables.
		ps.cfg.ApplyMeter(elems*int64(contributors+2), elems*4*int64(contributors+2))
	}
	ps.rounds++
	if err := ps.maybeCheckpointLocked(ps.gen + 1); err != nil {
		ps.finishRoundLocked(err)
		return
	}
	ps.finishRoundLocked(nil)
}

// maybeCheckpointLocked snapshots the shard if the committed-round count
// just crossed a checkpoint boundary. gen is the barrier generation the
// snapshot resumes into — the one the barrier is about to advance to —
// so a restart from this checkpoint accepts exactly the pushes the dead
// shard would have.
func (ps *ParameterServer) maybeCheckpointLocked(gen uint64) error {
	if ps.cfg.CheckpointEvery <= 0 || ps.rounds%ps.cfg.CheckpointEvery != 0 {
		return nil
	}
	ps.ckpt = AppendCheckpoint(ps.ckpt[:0], &Checkpoint{
		Shard:  ps.cfg.Shard,
		Shards: ps.cfg.Shards,
		Rounds: ps.rounds,
		Gen:    gen,
		Vars:   ps.vars, // encoded here, under ps.mu
	})
	if err := ps.cfg.CheckpointWrite(ps.ckpt); err != nil {
		return fmt.Errorf("dist: shard %d checkpoint at round %d: %w", ps.cfg.Shard, ps.rounds, err)
	}
	return nil
}

// deadlines runs the deadline actor: its turn comes at the open round's
// due time, and a commit parks it.
func (ps *ParameterServer) deadlines() {
	for {
		ps.deadline.Wait()
		ps.mu.Lock()
		closed, gen := ps.closed, ps.gen
		ps.mu.Unlock()
		if closed {
			return
		}
		ps.timeout(gen)
	}
}

// timeout is the deadline's turn for round gen. It declares the members
// that never pushed dead, shrinks the barrier to the survivors, moves
// the shard clock to the deadline (the survivors' wait) and commits from
// the gradients it has. A round nobody pushed into, or one that has
// committed, is left as it is.
func (ps *ParameterServer) timeout(gen uint64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if gen != ps.gen || len(ps.contribs) == 0 {
		ps.deadline.Park()
		return
	}
	r := &ps.round
	for s := range ps.seated {
		if r.Members[s.worker] && !r.Pushed[s.worker] {
			s.late.Store(int64(ps.due + 1))
			s.turn.Move(ps.due + 1)
		}
	}
	for w := range r.Members {
		if !r.Pushed[w] {
			delete(r.Members, w)
		}
	}
	// Count seats, not members: a worker that died before it ever said
	// hello holds a seat without being a member, and its eviction must
	// still show up in the ledger.
	ps.stats.Evictions += r.Need - len(r.Pushed)
	ps.stats.ShrunkRounds++
	r.Need = len(r.Pushed)
	ps.cfg.Meter.Clock().AdvanceTo(ps.due)
	ps.commitLocked()
}

// finishRoundLocked answers every push of the round with err, each in
// a turn asked for at the shard's time now, and resets the barrier for
// the next round.
func (ps *ParameterServer) finishRoundLocked(err error) {
	now := ps.cfg.Meter.Clock().Now()
	for _, s := range ps.waiters {
		s.ask(now)
		s.answer <- err
	}
	ps.waiters = nil
	ps.contribs = nil
	ps.deadline.Park()
	ps.gen++
	clear(ps.round.Pushed)
	// Round boundary: fold rejoined workers back into the barrier.
	for w := range ps.pending {
		delete(ps.pending, w)
		ps.round.Members[w] = true
		ps.round.Need++
		ps.stats.Rejoins++
	}
}
