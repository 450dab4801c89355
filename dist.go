package securetf

import (
	"cmp"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/tf/dist"
)

// ParameterServer holds the model variables of a distributed training
// job and applies synchronously averaged gradients (the paper's §5.4
// between-graph data-parallel architecture).
type ParameterServer = dist.ParameterServer

// TrainingWorker runs synchronous SGD steps against a parameter server.
type TrainingWorker = dist.Worker

// InitialVariables extracts a model's initial variable values — the
// state a parameter server is seeded with. Build every worker replica
// from the same seed so replicas match this state.
func InitialVariables(m Model) map[string]*Tensor { return dist.InitialVars(m.Graph) }

// ConsistencyPolicy selects how a parameter-server shard commits
// gradient pushes: SyncConsistency (barrier rounds, the default) or
// AsyncConsistency (apply-on-push under a bounded staleness K).
type ConsistencyPolicy = dist.ConsistencyPolicy

// SyncConsistency is the synchronous barrier policy — every worker in
// lockstep, gradients averaged per round. The zero ConsistencyPolicy
// value is the same thing, so existing configurations are unchanged.
func SyncConsistency() ConsistencyPolicy { return dist.Sync() }

// AsyncConsistency applies every gradient push the moment it arrives
// (no barrier — a straggler no longer gates its peers) and rejects, for
// worker-side retry, any push computed against variables more than
// `staleness` versions old. 0 demands fresh gradients; negative means
// unbounded. Each applied push is scaled by LR/Workers, so async is a
// relaxation of the same optimizer the synchronous rounds run.
func AsyncConsistency(staleness int) ConsistencyPolicy { return dist.Async(staleness) }

// GradCompression selects the gradient codec of a training cluster's
// push path: NoGradCompression (raw float32, the default),
// Int8GradCompression (per-tensor symmetric int8, ~4× fewer wire bytes)
// or TopKGradCompression(f) (top fraction f of entries by magnitude,
// sent sparse). The lossy codecs keep a worker-side error-feedback
// residual — the mass a frame rounds away or drops is re-added to the
// next step's gradient — so convergence is preserved. Like the
// consistency policy, the codec is negotiated in the connection
// handshake and a mixed-codec cluster fails at worker construction.
type GradCompression = dist.Compression

// NoGradCompression is the raw float32 push path — bit-for-bit today's
// wire format, and the zero value.
func NoGradCompression() GradCompression { return dist.NoCompression() }

// Int8GradCompression quantizes each pushed gradient tensor to int8
// with one symmetric per-tensor scale.
func Int8GradCompression() GradCompression { return dist.Int8Compression() }

// TopKGradCompression sparsifies each pushed gradient tensor to the top
// fraction f ∈ (0, 1] of entries by magnitude.
func TopKGradCompression(f float64) GradCompression { return dist.TopKCompression(f) }

// PSOption tunes a parameter server.
type PSOption func(*dist.PSConfig)

// WithRoundTimeout bounds how long, in virtual time, a synchronous round
// may stay incomplete after its first gradient push arrives (the
// elasticity of §3.2). At that deadline the workers that never pushed
// are evicted as dead, the barrier shrinks to the survivors and the
// round commits from the gradients it has, averaged over the
// contributors; an evicted worker is folded back in at the next round
// boundary after it says hello again. Either way a shard serves its
// workers' frames in the order they were sent, so who is evicted, and
// every virtual time, repeat from run to run. A worker that stays
// connected and sends nothing holds every later turn back, the
// deadline's too; once a turn has waited a minute of wall time behind
// it, the shard closes its connection. An asynchronous shard refuses
// one.
func WithRoundTimeout(d time.Duration) PSOption {
	return func(cfg *dist.PSConfig) { cfg.RoundTimeout = d }
}

// WithShard places the parameter server as shard `shard` (0-based) of a
// `shards`-node sharded cluster. The server retains only the variables
// the name-hash placement assigns to it; workers must be started with
// the full ordered shard address list (WorkerSpec.Addrs). The default is
// the classic single parameter server — exactly the 1-shard case.
func WithShard(shard, shards int) PSOption {
	return func(cfg *dist.PSConfig) { cfg.Shard, cfg.Shards = shard, shards }
}

// WithConsistency sets the shard's commit policy. Workers must expect
// the same policy (WorkerSpec.Consistency) — the connection handshake
// rejects mismatches.
func WithConsistency(p ConsistencyPolicy) PSOption {
	return func(cfg *dist.PSConfig) { cfg.Consistency = p }
}

// WithCompression sets the gradient codec the shard decodes on its push
// path. Workers must push with the same codec
// (WorkerSpec.Compression) — the connection handshake rejects
// mismatches, since a mixed-codec cluster would corrupt gradients
// silently.
func WithCompression(c GradCompression) PSOption {
	return func(cfg *dist.PSConfig) { cfg.Compression = c }
}

// WithCheckpoint snapshots the shard every `every` committed rounds:
// the encoded DistCheckpoint is handed to write before the round's
// barrier releases, so a crash after round r either left the full
// round-r snapshot or none. A write error aborts the round. write must
// not keep data after it returns (the io.Writer rule): the shard
// encodes every snapshot into the one buffer it keeps.
func WithCheckpoint(every int, write func(data []byte) error) PSOption {
	return func(cfg *dist.PSConfig) { cfg.CheckpointEvery, cfg.CheckpointWrite = every, write }
}

// WithResume seeds the shard from a checkpoint instead of the fresh
// variable values: variables, committed-round count and barrier
// generation continue exactly where the snapshot left off.
func WithResume(c *DistCheckpoint) PSOption {
	return func(cfg *dist.PSConfig) { cfg.Resume = c }
}

// PSStats counts a parameter-server shard's elasticity events:
// Evictions, Rejoins and ShrunkRounds.
type PSStats = dist.PSStats

// DistCheckpoint is one parameter-server shard's restart state — the
// variables, committed-round count and barrier generation a fresh shard
// needs (via WithResume) to continue a killed one.
type DistCheckpoint = dist.Checkpoint

// DecodeDistCheckpoint parses a shard snapshot, validating every length
// so truncated or bit-flipped files error instead of panicking.
func DecodeDistCheckpoint(data []byte) (*DistCheckpoint, error) { return dist.DecodeCheckpoint(data) }

// FaultPlan is a deterministic, seedable schedule of injected failures
// for chaos-testing a distributed training job: the same plan against
// the same seed yields the same trajectory.
type FaultPlan = dist.FaultPlan

// Fault is one scheduled failure of a FaultPlan.
type Fault = dist.Fault

// FaultKind names one kind of injected failure.
type FaultKind = dist.FaultKind

// The fault kinds a plan may schedule.
const (
	FaultKillWorker   = dist.FaultKillWorker
	FaultStallWorker  = dist.FaultStallWorker
	FaultDelayPush    = dist.FaultDelayPush
	FaultRestartShard = dist.FaultRestartShard
)

// ParseFaultPlan parses the textual fault-plan grammar
// (semicolon-separated `kill:w0@r2+rejoin1`, `stall:w1@r3`,
// `delay:w2@r1+5ms`, `restart:ps0@r4` entries).
func ParseFaultPlan(s string) (*FaultPlan, error) { return dist.ParseFaultPlan(s) }

// RandomFaultPlan draws a reproducible churn schedule of worker kills
// and rejoins from a seed.
func RandomFaultPlan(seed int64, workers, rounds int) *FaultPlan {
	return dist.RandomFaultPlan(seed, workers, rounds)
}

// StartParameterServer starts a parameter server inside a container,
// listening on addr through the container's (possibly TLS-shielded)
// listener. workers is the synchronous-round size and lr the learning
// rate applied to averaged gradients. The PS's gradient-averaging work
// is charged to the container's cost model. Pass the full model variable
// set even with WithShard: the server keeps only its own partition.
func StartParameterServer(c *Container, addr string, vars map[string]*Tensor, workers int, lr float64, opts ...PSOption) (*ParameterServer, net.Addr, error) {
	if c == nil {
		return nil, nil, errors.New("securetf: StartParameterServer requires a container")
	}
	ln, err := c.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("securetf: parameter server listen: %w", err)
	}
	dev := c.Device(1)
	cfg := dist.PSConfig{
		Listener: ln,
		Vars:     vars,
		Workers:  workers,
		LR:       lr,
		Meter:    c.Platform().Meter(),
		ApplyMeter: func(flops, bytes int64) {
			dev.Compute(flops)
			dev.Access(bytes, false)
		},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if e := c.Enclave(); e != nil {
		// Only this shard's partition of the variables lives in the
		// enclave (all of them in the 1-shard case).
		shards := cfg.Shards
		if shards == 0 {
			shards = 1
		}
		var varBytes int64
		for _, v := range dist.ShardVars(vars, cfg.Shard, shards) {
			varBytes += v.Bytes()
		}
		e.Alloc("ps/vars", varBytes)
	}
	ps, err := dist.NewParameterServer(cfg)
	if err != nil {
		ln.Close()
		return nil, nil, fmt.Errorf("securetf: start parameter server: %w", err)
	}
	return ps, ln.Addr(), nil
}

// WorkerSpec configures one distributed training worker.
type WorkerSpec struct {
	// ID distinguishes workers.
	ID int
	// Addrs lists the parameter-server shard addresses in shard order
	// (Addrs[s] is shard s of len(Addrs); one address for a single
	// parameter server). Required. The connection handshake
	// verifies each endpoint's shard identity and variable manifest, so
	// a mis-sharded or partially started cluster fails fast.
	Addrs []string
	// ServerName is the TLS identity of the parameter server, used when
	// the container's network shield is provisioned.
	ServerName string
	// Model is this worker's local replica (build from the same seed as
	// the variables the PS was seeded with). Required.
	Model Model
	// XS and YS are the worker's data shard. Required.
	XS, YS *Tensor
	// BatchSize is the per-step minibatch size (the paper uses 100).
	BatchSize int
	// Threads bounds the worker's compute parallelism (0 uses the
	// container default).
	Threads int
	// Consistency is the commit policy this worker expects every shard
	// to run (default SyncConsistency). The handshake verifies it, so a
	// mixed-up cluster fails at construction instead of stranding a
	// barrier.
	Consistency ConsistencyPolicy
	// Compression is the gradient codec this worker pushes with
	// (default NoGradCompression — raw float32). Every shard must run
	// the same codec (StartParameterServer's WithCompression); the
	// handshake rejects mismatches. Lossy codecs keep their
	// error-feedback residual on this worker.
	Compression GradCompression
	// StartStep offsets the worker's local step counter so a worker
	// started against a resumed cluster walks the same minibatch
	// schedule an uninterrupted run would.
	StartStep int
}

// StartTrainingWorker connects a worker inside a container to a
// parameter server. Dial goes through the container, so the network
// shield's TLS applies exactly as in the paper's Figure 8 "w/ TLS"
// series.
func StartTrainingWorker(c *Container, spec WorkerSpec) (*TrainingWorker, error) {
	if c == nil {
		return nil, errors.New("securetf: StartTrainingWorker requires a container")
	}
	serverName := cmp.Or(spec.ServerName, "parameter-server")
	worker, err := dist.NewWorker(dist.WorkerConfig{
		ID:    spec.ID,
		Addrs: spec.Addrs,
		Dial: func(network, addr string) (net.Conn, error) {
			return c.Dial(network, addr, serverName)
		},
		Model:       spec.Model,
		XS:          spec.XS,
		YS:          spec.YS,
		BatchSize:   spec.BatchSize,
		Device:      c.Device(spec.Threads),
		Meter:       c.Platform().Meter(),
		Consistency: spec.Consistency,
		Compression: spec.Compression,
		StartStep:   spec.StartStep,
	})
	if err != nil {
		return nil, fmt.Errorf("securetf: start training worker %d: %w", spec.ID, err)
	}
	return worker, nil
}

// TrainingBreakdown is the per-phase virtual time of one synchronous
// training step: pull parameters, local compute, push gradients and
// block on the round barrier.
type TrainingBreakdown = dist.Breakdown

// DistTrainConfig configures TrainDistributed, the one-call form of the
// paper's §5.4 distributed training job: one enclave node per parameter
// server shard and per worker, data-parallel SGD — synchronous rounds by
// default, apply-on-push when Consistency makes the cluster asynchronous.
type DistTrainConfig struct {
	// Kind selects the runtime every node runs under. Defaults to
	// SconeHW, the secureTF production mode.
	Kind RuntimeKind
	// TLS routes all parameter traffic through the network shield (the
	// paper's Figure 8 "w/ TLS" series). Every node attests to the job's
	// CAS and receives its TLS identity from it, so TLS needs a Kind
	// that runs in an enclave.
	TLS bool
	// Workers is the number of training workers. Required, ≥ 1.
	Workers int
	// PSShards is the number of parameter-server shards the variables
	// are partitioned across by name hash. Default 1 — the classic
	// single parameter server; the trained model is identical at any
	// shard count, only the wire fan-out changes.
	PSShards int
	// Rounds is the number of rounds (steps, on async shards) each
	// worker runs. Required, ≥ 1.
	Rounds int
	// BatchSize is the per-worker, per-round minibatch size. Required.
	BatchSize int
	// LR is the learning rate applied to averaged gradients. Required.
	LR float64
	// NewModel builds one model replica. It is called once to seed the
	// parameter servers and once per worker, and must be deterministic
	// (build from a fixed seed) so all replicas start identical.
	NewModel func() Model
	// ShardData returns worker w's private training shard.
	ShardData func(worker int) (xs, ys *Tensor, err error)
	// RoundTimeout, when positive, is how long, in virtual time, every
	// shard's round may wait on a straggler: at the deadline the
	// stragglers are evicted and the round commits from the survivors
	// (see WithRoundTimeout). Zero waits for every worker. The job's
	// virtual times repeat from run to run either way, and a worker that
	// fails aborts the job. Requires a synchronous cluster.
	RoundTimeout time.Duration
	// Consistency selects the commit policy of every parameter-server
	// shard (default SyncConsistency — bit-for-bit today's synchronous
	// behavior). Workers are configured to expect it automatically.
	Consistency ConsistencyPolicy
	// Compression selects the gradient codec of the whole cluster's
	// push path (default NoGradCompression — raw float32, bit-for-bit
	// the existing behavior). The facade wires the same codec into
	// every shard and every worker, so the handshakes always agree;
	// lossy codecs keep their error-feedback residuals worker-side and
	// the trained variables converge to within quantization tolerance
	// of the uncompressed run.
	Compression GradCompression
	// Checkpoint enables periodic shard snapshots through the shielded
	// file system (see DistCheckpointConfig). Zero disables them. Like
	// TLS, snapshots need a Kind that runs in an enclave.
	Checkpoint DistCheckpointConfig
	// Resume resumes the whole job from the snapshots a previous run's
	// Checkpoint config wrote: every shard restarts from
	// `checkpoints/shard-<s>.ckpt` and the workers continue at the
	// checkpointed round, walking the same minibatch schedule — for a
	// synchronous cluster the resumed trajectory is bit-identical to an
	// uninterrupted run. Requires Checkpoint.FS and Checkpoint.Key from
	// the run that wrote the snapshots.
	Resume bool
	// Chaos replays a deterministic fault plan against the job: workers
	// are killed, stalled or delayed and shards restarted from
	// checkpoint at the scheduled rounds. Kill and stall faults require
	// RoundTimeout > 0, whose deadline evicts the dead; restart faults
	// require Checkpoint.Every > 0. Training runs the rounds in lockstep
	// waves, so the schedule, the trajectory and every virtual time
	// repeat from run to run.
	Chaos *FaultPlan
}

// DistCheckpointConfig configures TrainDistributed's periodic shard
// snapshots, `checkpoints/shard-<s>.ckpt` on FS. The snapshots are
// written through the file-system shield — AES-256-GCM encrypted and
// authenticated on the host volume — so a checkpoint leaks nothing and
// a tampered one is rejected on resume. A shard receives the volume key
// from the job's CAS after attesting, and the CAS records every
// snapshot it writes, so within one job a snapshot the host rolls back
// is refused; a later job's CAS starts with no record.
type DistCheckpointConfig struct {
	// Every snapshots every shard each Every committed rounds. The
	// write lands before the round's barrier releases, so a crash after
	// round r either left the full round-r snapshot set or none.
	// 0 disables checkpointing.
	Every int
	// FS is the host volume the encrypted snapshots live on. Defaults
	// to a fresh in-memory volume; pass the same FS (and Key) to a
	// later job with Resume to resume across runs.
	FS FS
	// Key seals the snapshot volume: the job's CAS provisions it to
	// every shard. Defaults to a freshly drawn key.
	Key *VolumeKey
}

// DistTrainResult reports a distributed training job's outcome.
type DistTrainResult struct {
	// FinalLoss is the mean over workers of the last round's loss.
	FinalLoss float64
	// Losses[w] lists worker w's minibatch losses, one per round it
	// completed. In an uninterrupted run Losses[w][r] is round r's
	// loss; under a resume or a chaos plan the slice covers only the
	// rounds this worker actually ran.
	Losses [][]float64
	// Rounds is the number of rounds committed by every shard when the
	// cluster is synchronous. On an async cluster commits are per push
	// and per shard, so Rounds reports the per-worker step count
	// instead.
	Rounds int
	// StalenessRetries is the total number of pushes rejected by an
	// async shard's staleness bound and retried, summed over workers.
	// Always 0 for a synchronous cluster.
	StalenessRetries int
	// Latency is the end-to-end virtual time: the maximum over every
	// node clock (shards and workers) when the job finished.
	Latency time.Duration
	// Breakdown is the last round's per-phase virtual time, each phase
	// the maximum over workers.
	Breakdown TrainingBreakdown
	// PushWirePerShard is the mean per-shard, per-round virtual wire
	// time of the gradient pushes — the bandwidth bottleneck sharding
	// attacks: with N shards each parameter server receives only ~1/N of
	// every worker's gradient bytes.
	PushWirePerShard time.Duration
	// PushBytes is the total raw frame bytes of every gradient push,
	// summed over workers, shards and rounds — the quantity the
	// gradient codec shrinks (independent of the bandwidth cost model).
	PushBytes int64
	// Evictions, Rejoins and ShrunkRounds are the elastic-barrier
	// counters, the maximum over shards (every shard observes the same
	// dead workers, so the max is the per-cluster count; restarted
	// shards carry their pre-restart counts forward).
	Evictions    int
	Rejoins      int
	ShrunkRounds int
	// DroppedPushes is the number of shard contributions dropped
	// because an elastic barrier committed a round without the pushing
	// worker, summed over all worker instances.
	DroppedPushes int
	// FinalVars is the trained model state, merged across shards — the
	// checkpoint/resume property tests compare it bit-for-bit.
	FinalVars map[string]*Tensor
}

// TrainDistributed runs a complete data-parallel training job,
// synchronous unless cfg.Consistency says otherwise: it launches one
// container per parameter-server shard and per worker (each on its own
// platform, as in the paper's cluster), wires the workers to every
// shard, trains for the configured rounds and reports losses, the
// end-to-end virtual latency and the per-phase breakdown. A job with
// TLS or snapshots starts a CAS of its own, and every node attests to
// it before it receives its TLS identity or the volume key. With
// PSShards: 1 it is exactly the classic single parameter-server
// deployment. The paper's Figures 8 and 9 (internal/experiments) are
// calls to this function.
func TrainDistributed(cfg DistTrainConfig) (*DistTrainResult, error) {
	j, err := newDistJob(cfg)
	if err != nil {
		return nil, err
	}
	defer j.close()
	return j.run()
}

// run stands the job's cluster up and trains it to its result.
func (j *distJob) run() (_ *DistTrainResult, err error) {
	if err = j.startShards(); err != nil {
		return nil, err
	}
	for w := range j.workerNodes {
		if j.workerNodes[w], err = j.launchNode(fmt.Sprintf("train-worker-%d", w), false); err != nil {
			return nil, err
		}
	}
	if err = j.startWorkers(); err == nil && j.cfg.Chaos != nil {
		err = j.runWaves()
	} else if err == nil {
		err = j.runFree()
	}
	for _, worker := range j.workers {
		if worker != nil {
			worker.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return j.result()
}

// startWorkers connects the workers one after another, in id order, so
// each shard has seated all of them before the first pull.
func (j *distJob) startWorkers() error {
	for w := range j.workers {
		var err error
		if j.xs[w], j.ys[w], err = j.cfg.ShardData(w); err != nil {
			return err
		}
		if j.workers[w], err = j.startWorker(w, j.startRounds); err != nil {
			return err
		}
	}
	return nil
}

// distJob is one TrainDistributed run: the validated config and the
// cluster stood up for it. The free-running rounds and the fault plan's
// lockstep waves (dist_chaos.go) are two loops over the same job.
type distJob struct {
	cfg         DistTrainConfig
	synchronous bool // the cluster runs SyncConsistency
	// cas attests every node and provisions the TLS identities and the
	// snapshot volume key; nil when the job has neither to hand out.
	cas  *CAS
	vars map[string]*Tensor
	// A fault plan's restarts replace a shard and its node in place;
	// statsBase accumulates the elasticity counters of the replaced
	// instances, so a restart does not erase its shard's history.
	shardNodes  []*Container
	shards      []*ParameterServer
	addrs       []string
	statsBase   []PSStats
	startRounds int
	workerNodes []*Container
	workers     []*TrainingWorker
	xs, ys      []*Tensor
	losses      [][]float64
	// retired collects killed worker instances so their wire and drop
	// counters still fold into the result.
	retired   []*TrainingWorker
	abortOnce sync.Once
}

// newDistJob validates cfg, fills its defaults and sizes the job; no
// node is launched yet.
func newDistJob(in DistTrainConfig) (*distJob, error) {
	j := &distJob{cfg: in, synchronous: in.Consistency.Kind == dist.ConsistencySync}
	cfg := &j.cfg
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("securetf: DistTrainConfig.Workers must be ≥ 1, got %d", cfg.Workers)
	}
	if cfg.PSShards == 0 {
		cfg.PSShards = 1
	}
	if cfg.PSShards < 1 {
		return nil, fmt.Errorf("securetf: DistTrainConfig.PSShards must be ≥ 1, got %d", cfg.PSShards)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("securetf: DistTrainConfig.Rounds must be ≥ 1, got %d", cfg.Rounds)
	}
	if cfg.NewModel == nil || cfg.ShardData == nil {
		return nil, errors.New("securetf: DistTrainConfig.NewModel and ShardData are required")
	}
	if cfg.Kind == 0 {
		cfg.Kind = SconeHW
	}
	if cfg.RoundTimeout > 0 && !j.synchronous {
		return nil, errors.New("securetf: DistTrainConfig.RoundTimeout requires a synchronous cluster")
	}
	if cfg.Checkpoint.Every < 0 {
		return nil, fmt.Errorf("securetf: DistTrainConfig.Checkpoint.Every must be ≥ 0, got %d", cfg.Checkpoint.Every)
	}
	if cfg.Resume && (cfg.Checkpoint.FS == nil || cfg.Checkpoint.Key == nil) {
		return nil, errors.New("securetf: DistTrainConfig.Resume needs the snapshot volume and its key (Checkpoint.FS, Checkpoint.Key)")
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(cfg.Workers, cfg.PSShards, cfg.Rounds, cfg.Checkpoint.Every); err != nil {
			return nil, fmt.Errorf("securetf: DistTrainConfig.Chaos: %w", err)
		}
		if (cfg.Chaos.HasKind(FaultKillWorker) || cfg.Chaos.HasKind(FaultStallWorker)) && cfg.RoundTimeout <= 0 {
			return nil, errors.New("securetf: chaos kill/stall faults need a RoundTimeout to detect the dead")
		}
	}
	if j.checkpointing() {
		if cfg.Checkpoint.FS == nil {
			cfg.Checkpoint.FS = NewMemFS()
		}
		if cfg.Checkpoint.Key == nil {
			var err error
			if cfg.Checkpoint.Key, err = NewVolumeKey(); err != nil {
				return nil, err
			}
		}
	}
	j.vars = InitialVariables(cfg.NewModel())
	j.shardNodes = make([]*Container, cfg.PSShards)
	j.shards = make([]*ParameterServer, cfg.PSShards)
	j.addrs = make([]string, cfg.PSShards)
	j.statsBase = make([]PSStats, cfg.PSShards)
	j.workerNodes = make([]*Container, cfg.Workers)
	j.workers = make([]*TrainingWorker, cfg.Workers)
	j.xs, j.ys = make([]*Tensor, cfg.Workers), make([]*Tensor, cfg.Workers)
	j.losses = make([][]float64, cfg.Workers)
	if cfg.TLS || j.checkpointing() {
		if err := j.startCAS(); err != nil {
			j.close()
			return nil, err
		}
	}
	return j, nil
}

// casSession names the one session a job's nodes attest to.
const casSession = "train-distributed"

// startCAS starts the job's CAS on a platform of its own and registers
// the session every node attests to: the TensorFlow image's
// measurement, simulation-mode quotes only under SconeSIM, the TLS
// service names when the job runs shielded traffic and the snapshot
// volume key when it checkpoints. A native node has no enclave to
// attest, so such a job is refused. The job's owner registers the
// session from the CAS's platform, since no node has launched yet.
func (j *distJob) startCAS() error {
	cfg := j.cfg
	if !cfg.Kind.Shielded() {
		return fmt.Errorf("securetf: DistTrainConfig.TLS and Checkpoint need nodes a CAS can attest, and a %v node runs no enclave", cfg.Kind)
	}
	platform, err := NewPlatform("train-cas")
	if err != nil {
		return err
	}
	if j.cas, err = StartCAS(platform, NewMemFS()); err != nil {
		return err
	}
	session := &Session{
		Name:         casSession,
		OwnerToken:   rand.Text(), // no one but this job can rewrite the session
		Measurements: []string{TensorFlowImage().Measure().Hex()},
		AllowSIM:     cfg.Kind == SconeSIM,
	}
	if cfg.TLS {
		session.Services = []string{"parameter-server", "localhost", "127.0.0.1"}
	}
	if j.checkpointing() {
		session.Volumes = map[string][]byte{ckptDir: cfg.Checkpoint.Key[:]}
	}
	owner, err := bootstrapCAS(j.cas.Enclave(), j.cas.Addr(), j.cas.Measurement(), TrustedKeys(platform))
	if err != nil {
		return err
	}
	defer owner.Close()
	if err := owner.Register(session); err != nil {
		return fmt.Errorf("securetf: register the training session: %w", err)
	}
	return nil
}

func (j *distJob) checkpointing() bool {
	return j.cfg.Checkpoint.Every > 0 || j.cfg.Resume
}

// launchNode launches one cluster node on its own platform. A shielded
// node mounts the snapshot volume. When the job has a CAS the node
// attests to it and installs what the session provisions: its TLS
// identity, and on a shielded node the volume key and the CAS's audit
// of every snapshot.
func (j *distJob) launchNode(name string, shielded bool) (*Container, error) {
	cfg := j.cfg
	platform, err := NewPlatform(name)
	if err != nil {
		return nil, err
	}
	ccfg := ContainerConfig{
		Kind:     cfg.Kind,
		Platform: platform,
		Image:    TensorFlowImage(),
		HostFS:   NewMemFS(),
	}
	if shielded {
		// Checkpointing shards share the snapshot volume through the
		// file-system shield: the snapshots land encrypted and
		// authenticated, and a restarted shard (same key, same
		// volume) reads them back transparently.
		ccfg.HostFS = cfg.Checkpoint.FS
		ccfg.FSShieldRules = []Rule{EncryptPrefix(ckptDir + "/")}
	}
	c, err := Launch(ccfg)
	if err != nil {
		return nil, err
	}
	if j.cas != nil {
		j.cas.TrustPlatform(platform.Name(), platform.AttestationKey())
		client, err := NewCASClient(c, j.cas, j.cas.Enclave().Platform(), platform)
		if err == nil {
			_, _, err = c.Provision(client, casSession, ckptDir)
		}
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("securetf: provision %s: %w", name, err)
		}
	}
	return c, nil
}

// ckptDir is the snapshot directory on the checkpoint volume.
const ckptDir = "checkpoints"

func ckptPath(s int) string { return fmt.Sprintf("%s/shard-%d.ckpt", ckptDir, s) }

// psOpts is shard s's option set on container c — also what a fault
// plan's restart passes, so a resumed shard runs exactly the options the
// original did.
func (j *distJob) psOpts(c *Container, s int) []PSOption {
	cfg := j.cfg
	opts := []PSOption{
		WithShard(s, cfg.PSShards), WithRoundTimeout(cfg.RoundTimeout),
		WithConsistency(cfg.Consistency), WithCompression(cfg.Compression),
	}
	if cfg.Checkpoint.Every > 0 {
		fsys, p := c.FS(), ckptPath(s)
		opts = append(opts, WithCheckpoint(cfg.Checkpoint.Every, func(data []byte) error {
			return WriteFile(fsys, p, data)
		}))
	}
	return opts
}

func (j *distJob) loadCheckpoint(c *Container, s int) (*DistCheckpoint, error) {
	data, err := ReadFile(c.FS(), ckptPath(s))
	if err != nil {
		return nil, fmt.Errorf("securetf: shard %d checkpoint: %w", s, err)
	}
	ck, err := DecodeDistCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("securetf: shard %d checkpoint: %w", s, err)
	}
	if ck.Shards != j.cfg.PSShards {
		return nil, fmt.Errorf("securetf: shard %d checkpoint is from a %d-shard cluster, this job runs %d", s, ck.Shards, j.cfg.PSShards)
	}
	return ck, nil
}

// startShards launches the parameter-server shards, one node each,
// resuming every one from its snapshot when the job resumes.
func (j *distJob) startShards() error {
	cfg := j.cfg
	for s := range j.shards {
		c, err := j.launchNode(fmt.Sprintf("ps-shard-%d", s), j.checkpointing())
		if err != nil {
			return err
		}
		j.shardNodes[s] = c
		opts := j.psOpts(c, s)
		if cfg.Resume {
			ck, err := j.loadCheckpoint(c, s)
			if err != nil {
				return err
			}
			if s == 0 {
				j.startRounds = ck.Rounds
			} else if ck.Rounds != j.startRounds {
				return fmt.Errorf("securetf: shard %d checkpoint is at round %d, shard 0 at %d (torn snapshot set)", s, ck.Rounds, j.startRounds)
			}
			opts = append(opts, WithResume(ck))
		}
		ps, addr, err := StartParameterServer(c, "127.0.0.1:0", j.vars, cfg.Workers, cfg.LR, opts...)
		if err != nil {
			return err
		}
		j.shards[s] = ps
		j.addrs[s] = addr.String()
	}
	if j.startRounds >= cfg.Rounds {
		return fmt.Errorf("securetf: resume checkpoint is already at round %d of a %d-round job", j.startRounds, cfg.Rounds)
	}
	return nil
}

// startWorker launches (or, under a fault plan, relaunches) worker w's
// training client on its node. startStep aligns the minibatch schedule:
// a resumed job, or a rejoining replacement, walks the same data windows
// the original worker would have.
func (j *distJob) startWorker(w, startStep int) (*TrainingWorker, error) {
	spec := WorkerSpec{
		ID:         w,
		Addrs:      j.addrs,
		ServerName: "parameter-server",
		Model:      j.cfg.NewModel(),
		XS:         j.xs[w], YS: j.ys[w],
		BatchSize:   j.cfg.BatchSize,
		Consistency: j.cfg.Consistency,
		Compression: j.cfg.Compression,
		StartStep:   startStep,
	}
	return StartTrainingWorker(j.workerNodes[w], spec)
}

// abort closes the shards. A worker that fails before pushing leaves the
// others blocked on a barrier that can never fill; closing the shards
// aborts their rounds so the job returns the error instead of
// deadlocking (Close is idempotent — close stays correct).
func (j *distJob) abort() {
	j.abortOnce.Do(func() {
		for _, ps := range j.shards {
			if ps != nil {
				ps.Close()
			}
		}
	})
}

func (j *distJob) close() {
	for _, c := range j.workerNodes {
		if c != nil {
			c.Close()
		}
	}
	for _, ps := range j.shards {
		if ps != nil {
			ps.Close()
		}
	}
	for _, c := range j.shardNodes {
		if c != nil {
			c.Close()
		}
	}
	if j.cas != nil {
		j.cas.Close()
	}
}

// runFree trains every worker concurrently, each stepping through its
// rounds as fast as the shards' barriers let it; each shard serves
// their rounds in the order their frames were sent (the seats of dist's
// ps.go, which take turns on a vtime.Scheduler).
func (j *distJob) runFree() error {
	errs := make([]error, j.cfg.Workers)
	var wg sync.WaitGroup
	for w, worker := range j.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if errs[w] = j.runWorker(w, worker); errs[w] != nil {
				j.abort()
			}
		}(w)
	}
	wg.Wait()
	// Join all worker errors: when one failure aborts the cluster, the
	// root cause surfaces alongside the survivors' abort errors.
	return errors.Join(errs...)
}

func (j *distJob) runWorker(w int, worker *TrainingWorker) error {
	for r := j.startRounds; r < j.cfg.Rounds; r++ {
		if err := worker.Step(); err != nil {
			return err
		}
		j.losses[w] = append(j.losses[w], worker.LastLoss)
	}
	return nil
}

// result folds the finished cluster's state into the job's report.
func (j *distJob) result() (*DistTrainResult, error) {
	res := &DistTrainResult{Losses: j.losses, FinalVars: make(map[string]*Tensor, len(j.vars))}
	live := 0
	for w, worker := range j.workers {
		if worker == nil || len(res.Losses[w]) == 0 {
			// A worker killed by the fault plan and never replaced has
			// no final state to fold in.
			continue
		}
		live++
		res.FinalLoss += res.Losses[w][len(res.Losses[w])-1]
		b := worker.LastBreakdown
		res.Breakdown.Pull = max(res.Breakdown.Pull, b.Pull)
		res.Breakdown.Compute = max(res.Breakdown.Compute, b.Compute)
		res.Breakdown.Push = max(res.Breakdown.Push, b.Push)
	}
	if live > 0 {
		res.FinalLoss /= float64(live)
	}
	// Wire accounting sums over every worker instance, including the
	// ones the fault plan killed mid-job.
	var pushWire time.Duration
	for _, worker := range append(append([]*TrainingWorker{}, j.workers...), j.retired...) {
		if worker == nil {
			continue
		}
		for _, d := range worker.PushWire() {
			pushWire += d
		}
		for _, n := range worker.PushBytes() {
			res.PushBytes += n
		}
		res.StalenessRetries += worker.StalenessRetries()
		res.DroppedPushes += worker.DroppedPushes()
	}
	res.PushWirePerShard = pushWire / time.Duration(j.cfg.PSShards*(j.cfg.Rounds-j.startRounds))
	for s, ps := range j.shards {
		st, base := ps.Stats(), j.statsBase[s]
		res.Evictions = max(res.Evictions, st.Evictions+base.Evictions)
		res.Rejoins = max(res.Rejoins, st.Rejoins+base.Rejoins)
		res.ShrunkRounds = max(res.ShrunkRounds, st.ShrunkRounds+base.ShrunkRounds)
		for name, t := range ps.Vars() {
			res.FinalVars[name] = t
		}
	}
	// Async shards commit per push, so their commit counts are not
	// rounds; the job-level round count is then the per-worker step
	// count.
	res.Rounds = j.cfg.Rounds
	if j.synchronous {
		res.Rounds = j.shards[0].Rounds()
		for s, ps := range j.shards {
			if got := ps.Rounds(); got != res.Rounds {
				return nil, fmt.Errorf("securetf: shard %d committed %d rounds, shard 0 committed %d", s, got, res.Rounds)
			}
		}
	}
	for _, c := range append(append([]*Container{}, j.shardNodes...), j.workerNodes...) {
		res.Latency = max(res.Latency, c.Clock().Now())
	}
	return res, nil
}
