// Package securetf is the public API of the secureTF reproduction — a
// secure machine-learning framework that runs unmodified TensorFlow-style
// workloads inside (simulated) Intel SGX enclaves, reproducing
// "secureTF: A Secure TensorFlow Framework" (Middleware 2020).
//
// The package is a facade over the substrates in internal/: the SGX
// enclave simulator (internal/sgx), the runtimes (SCONE-style shielded
// execution and the Graphene and native baselines, one type in
// internal/core, which price the one syscall boundary in internal/sysio),
// the file-system and network shields, the Configuration and Attestation
// Service (CAS), and the from-scratch TensorFlow / TensorFlow Lite
// engines. It exposes the workflow the paper describes end to end:
//
//  1. Create a Platform (one per physical node) and Launch a secure
//     Container on it, choosing a RuntimeKind — the five systems of the
//     paper's Figure 5 (SCONE HW/SIM, Graphene, native glibc/musl).
//  2. Attest the container to a CAS with Container.Provision, receiving
//     the volume key for the file-system shield, a TLS identity for the
//     network shield and any application secrets. Provision is the only
//     way a shield is keyed: a container launched with FSShieldRules
//     (a shielded kind only) refuses every file-system call until then,
//     so nothing it writes reaches the host in the clear. The shield's
//     audit channel (its rollback protection) is then one attested
//     connection per CAS client, kept across calls and closed with the
//     container; its handshake is charged once, when it is made.
//  3. Train a model with Train, Freeze it, convert it to the
//     small-footprint Lite format with FrozenModel.ConvertToLite, and
//     classify with a Classifier — or serve over the network with
//     ServeModels (one gateway) and ServeRouter (a fleet of gateways
//     behind a router). TrainedModel.Accuracy evaluates a labelled set
//     a block of rows at a time, so an evaluation holds one block's
//     activations however large the set.
//
// A minimal secure classification round trip:
//
//	platform, _ := securetf.NewPlatform("node-0")
//	container, _ := securetf.Launch(securetf.ContainerConfig{
//		Kind:     securetf.SconeHW,
//		Platform: platform,
//		Image:    securetf.TFLiteImage(),
//		HostFS:   securetf.NewMemFS(),
//	})
//	defer container.Close()
//
//	model := securetf.NewMNISTCNN(1)
//	trained, _ := securetf.Train(securetf.TrainConfig{
//		Container: container, Model: model,
//		XS: xs, YS: ys, BatchSize: 100, Steps: 50,
//	})
//	frozen, _ := trained.Freeze()
//	lite, _ := frozen.ConvertToLite(securetf.ConvertOptions{})
//	classifier, _ := securetf.NewClassifier(container, lite, 1)
//	classes, _ := classifier.Classify(batch)
//
// Network serving (§4.2) is a multi-model gateway: ServeModels starts a
// ModelServer on the container's (shielded) listener, hosting a versioned
// model registry. Models register by name@version — in memory with
// Register, or with LoadModel, which reads the model file back through
// the container's file-system shield so the bytes the interpreters see
// came through the attested provisioning path. Each version gets a pool
// of interpreter replicas (ServingConfig.Replicas), so concurrent
// requests do not serialize on one interpreter; requests arriving within
// ServingConfig.BatchWindow coalesce into a single batched invocation of
// up to MaxBatch rows, amortizing the per-invoke weight streaming that
// dominates enclave inference, and the outputs are split back per
// caller, bitwise identical to per-request execution. Admission control
// is a bounded per-model queue (QueueCap): overflow is refused with a
// distinct wire status that clients observe as ErrOverloaded, so they
// can back off instead of piling up. SetServing hot-swaps the version
// unpinned requests resolve to — atomically, with in-flight work
// finishing on the version it resolved and nothing dropped — and
// ModelServer.Metrics snapshots per-version counters (served, batches,
// rejections, queue depth, p50/p99 virtual latency).
//
// The serving wire protocol extends the original length-prefixed tensor
// frames with a request header (model name + pinned version, 0 for "the
// serving version", plus a server-side-argmax flag so classification
// responses carry one class label per row rather than full probability
// vectors) and an explicit response status + serving version, so one
// endpoint multiplexes models and clients can distinguish overload from
// hard failure. Every response also carries the virtual service time the
// node charged the request, which is what lets a router attribute
// per-step cost across a fleet (§4.3 below). The serving facade is one
// surface: ServeModels/DialModelServer take a single config struct
// (ModelServerConfig, ModelClientConfig) and a request with an empty
// model name resolves to DefaultModelName, so single-model deployments
// need no separate API:
//
//	gw, _ := securetf.ServeModels(c, securetf.ModelServerConfig{Addr: addr})
//	_ = gw.Register(securetf.DefaultModelName, 1, model)
//	cl, _ := securetf.DialModelServer(c, securetf.ModelClientConfig{Addr: gw.Addr()})
//	classes, _ := cl.Classify("", input)
//
// A serving connection — the gateway's and the router's alike — owns
// its memory: the frame last read, the frame last written and the
// request tensor, into which every request of the same dtype and shape
// is decoded. A request's input therefore belongs to the connection
// until the server has answered it, and a warm round allocates about
// its response, not its input. A connection keeps its largest frame (at
// most 1 GiB, the wire's frame limit) until it closes. A client keeps
// its two frame buffers the same way; the tensors it returns are the
// caller's.
//
// A ModelClient can opt into overload retries with SetRetry: capped
// exponential backoff whose jitter is a hash of the request identity
// rather than a random draw, so the retry schedule is deterministic and
// the backoff is charged to the virtual clock.
//
// On top of that data plane the gateway runs a three-layer control
// plane. Every model runs with the gateway's ServingConfig, except for
// its admission-queue bound: ModelServer.SetQueueCap(model, n) moves it
// live, before or after the model registers, and applies to the very
// next request; n = 0 hands the model back to ServingConfig.QueueCap,
// and QueueCap(model) reports the bound in force.
//
// The autoscaler (ServingConfig.Autoscale) turns the per-model replica
// count into a live quantity driven by the metrics the gateway already
// keeps: on deterministic 20 ms virtual-time ticks (evaluated lazily
// from request and batch-completion events, with TickAutoscale forcing
// a pass for harnesses), a model whose queue depth crosses half its
// QueueCap or which rejected arrivals since the last tick is under
// pressure, and two consecutive pressured ticks double its replicas up
// to MaxReplicas, the one knob; two drained ticks step it back down
// toward one replica; and a model with no arrivals for three ticks
// parks at zero replicas with its interpreter pools evicted — the
// enclave's weight residency for that model drops to nothing, the
// TensorSCONE-style win — to be recreated lazily when the next request
// wakes it. Replica-seconds
// (ModelServer.ReplicaSeconds) integrate the pool size over virtual
// time, so the capacity saved is measurable.
//
// Rollouts are weighted canaries: StartCanary(model, candidate, cfg)
// routes cfg.Percent of unpinned traffic to the candidate version
// (pinned requests never participate), evenly spread rather than
// front-loaded. After cfg.Window candidate responses the gateway
// decides: rollback when the model's admission-rejection fraction
// exceeds its pre-canary baseline by more than 5 percentage points,
// when the candidate's error rate exceeds the incumbent's by the same
// delta, or when the candidate's p99 virtual latency exceeds 1.5 times
// the incumbent's — promotion (an atomic SetServing to the candidate)
// otherwise. An operator SetServing away from the incumbent or removing
// the candidate mid-flight aborts the canary instead, and
// candidate-routed requests degrade to the serving version rather than
// failing if the candidate vanishes. The state machine — active, then
// exactly one of promoted / rolled-back / aborted — is reported by
// ModelServer.Canary and in Metrics, whose snapshot is ordered
// deterministically by model then version.
//
// Multi-node serving (§4.3) fronts a fleet of gateways with a router
// tier. ServeRouter(c, RouterConfig{...}) takes the placement — a list
// of RouterNode entries naming each gateway's address and the models it
// is expected to serve — plus optional GraphSpec definitions, and
// builds a signed placement manifest. At startup the router dials every
// node through its own attested container and verifies the placement
// against what the node actually serves, failing fast with
// ErrManifestMismatch instead of routing into a misconfigured fleet;
// the same check rejects graphs whose steps reference unplaced models.
// Clients connect with DialRouter(c, RouterClientConfig{...}): the dial
// handshake returns the manifest signed with the router's ECDSA
// manifest key, the client verifies it against the pinned VerifyKey
// (Router.ManifestKey().Public()), and ExpectModels/ExpectGraphs let
// the client fail fast at dial time when the fleet does not serve what
// it needs. Request spread is smooth weighted round-robin over the
// healthy nodes serving the requested model: per-node rejection and
// error rates, sampled on virtual-time ticks, drive the weights, a node
// whose connection dies is marked dead and its pooled connections are
// flushed, and in-flight requests fail over to the next candidate node
// — the caller sees one surface regardless of fleet size.
//
// Inference graphs compose models across the fleet in a single client
// call. A GraphSpec is a tree of GraphNodes: Sequence pipes each step's
// output into the next (virtual cost is the sum of steps); Ensemble
// runs its children concurrently and averages their outputs (cost is
// the slowest child, and it degrades to the surviving children when a
// node dies mid-call); Splitter picks one child per request by declared
// weight with a deterministic modular counter, failing over in
// declaration order; Switch classifies with its selector model and
// branches on the argmax class, falling back to its default branch for
// unmapped classes. Each executed step charges the virtual service time
// reported by the node that ran it, so Router.Metrics carries per-graph
// and per-node aggregates and Router.Traces(graph) returns per-request
// GraphTraces — step, model, node and virtual time for every hop, which
// is what examples/document_digitization prints for its three-step
// OCR → classify → redact pipeline.
//
// Distributed training (§5.4) follows the classic TF1 between-graph
// data-parallel architecture: StartParameterServer seeds a parameter
// server with InitialVariables(model), and StartTrainingWorker connects
// worker replicas that pull parameters, compute gradients on their
// private shard and push them back each synchronous round. Connections
// dial through the container, so the network shield's TLS wraps the
// parameter traffic exactly as in the paper's Figure 8 "w/ TLS" series;
// WithRoundTimeout bounds how long a round may wait on a straggler
// before evicting it and carrying on (the elasticity story below).
// Workers report their per-phase virtual time (pull / compute / push) in
// TrainingWorker.LastBreakdown; the push stamp is taken only after the
// last parameter-server ack has been read, so the breakdown carries the
// full wire + barrier cost. A synchronous shard serves its workers'
// frames in the order they were sent in virtual time, not in the order
// the host delivers them (its connections take turns on internal/vtime's
// Scheduler, which orders the federated clients too), and
// TrainDistributed connects its workers one after another before any
// round, so a job's virtual times repeat from run to run, up to the
// receive-side charges of each frame's first bytes. A round timeout is
// virtual too: the round's deadline is one more turn on that Scheduler.
// An asynchronous shard serves frames as they come. A job needs no timeout
// to survive a failed worker: TrainDistributed aborts the whole job on
// any worker's error. The paper's own §5.4 numbers come off this
// API: internal/experiments regenerates Figures 8 and 9 (and the
// shard, codec and consistency sweeps) as TrainDistributed jobs and
// StartParameterServer/StartTrainingWorker nodes, so the CI ratio gates
// measure the cluster an application gets.
//
// A training step reuses its memory, and one ownership rule says whose
// each byte is; internal/tf/dist's package comment ("Who owns what")
// states it, for training and federated alike. In short: a Run's
// results are the caller's to keep, and everything else a Run computes
// is the session's until the next Run, which computes into the same
// storage, laid out before the Run so that no two values live at once
// share it; a training replica steps a session it holds, one of its
// plan's (a worker's for its life, a federated client's for a round's
// local steps), fetches its gradients into that session's tensors
// (RunInto), so they are valid until its next step, and feeds views of
// its data shard, which no Run writes; each end of a
// connection borrows a buffer for each frame from its owner's list and
// gives it back once the frame is written or decoded, so an idle
// connection holds none, the blobs of a received frame are valid until
// that end's next send or read, and a received variable is decoded
// straight into the storage it belongs in. Serving keeps its memory
// too, but hands nothing away: a Classifier's (and a gateway
// replica's) Lite interpreter keeps each output, as TFLite does, in one
// tensor per output that the next Invoke of the same shape computes into
// again, so an output is valid until the next Invoke (or Run) and a
// caller that keeps one copies it; its other activations lie in slabs
// laid out before the Invoke, as a Run's do, so a warm Invoke allocates
// nothing. A gateway copies each caller's rows out of the batch's output
// into a reply tensor the caller's connection reuses, before the replica
// goes back to its pool, and a router decodes each stage's reply into a
// tensor its customer's connection reuses, so a served document leaves
// the client's decode of its answer and little else on the heap.
//
// Training's intermediate state is what pressures the EPC (§7.1), so the
// enclave is charged for a step's intermediates ("tf/arena") what the
// step's plan needs at its peak, plus its Const values. Before a Run the
// session derives every node's shape from its op's rule and lays each
// value, scratch buffer and forward cache out in one float32 and one
// int32 slab, greedily as TFLite's arena planner does, where nothing live
// beside it lies; a kernel draws its planned slice, and a draw of another
// size fails the Run. A Relu's gradient reads the Relu's output, as
// TensorFlow's does, so the Relu may overwrite its input, and a bias add
// its product, in place: a batch-50 MNIST-CNN step holds 4.79 MB. Two
// element-wise passes a layer are not made at all, bit for bit: a bias
// add that only a Relu reads runs inside it, one pass of relu(x+bias)
// over the product, and where a max pool alone reads a Relu, the Relu's
// gradient is masked by the pool's output before MaxPoolGrad scatters it
// rather than after, over a quarter of the elements. The batch-50 step
// charges the enclave some 8 MB less memory traffic for it. The
// Lite interpreter derives every op's shape before an Invoke and lays
// its activations out by the same code ("tflite/arena" is the slabs, its
// peak: 16 KB for a batch-1 densenet), again when the batch changes.
//
// The parameter server shards across nodes. The placement rule is a
// name hash: each variable's 32-bit FNV-1a hash selects a shard by
// range partition (shard = hash·shards >> 32), computed independently —
// and verified to agree via a connection-time manifest handshake — by
// every worker and server, so growing the shard count by an integer
// factor refines the placement instead of reshuffling it. Start one
// StartParameterServer per shard with WithShard(s, n) (each keeps only
// its partition of the seed variables) and hand workers the ordered
// address list in WorkerSpec.Addrs; a worker pointed at a mis-sharded
// or partially started cluster fails construction instead of hanging
// mid-round. Each worker fans its pulls and pushes out to all shards
// concurrently with causally consistent virtual time: every shard
// exchange runs on a branch clock seeded at the phase start and the
// phase completes at the maximum branch time, so a round's completion
// vtime is its slowest shard's and no single PS link carries more than
// its partition of the ~MB-scale gradient traffic
// (TrainingWorker.PushWire reports the per-shard wire time).
// TrainDistributed packages the whole cluster — one enclave node per
// shard and per worker, optional TLS — behind one call with a PSShards
// option (default 1, the classic deployment, which reproduces the
// single-PS trainer exactly). A job with TLS or snapshots starts a CAS
// of its own and registers one session for the job. Every node attests
// to that CAS before it receives anything (Container.Provision): its
// TLS identity and, on a shard, the snapshot volume key, as in the
// paper's §3. The attestations are charged to the nodes' clocks at
// set-up. A native node has no enclave to attest, so a native job can
// have neither TLS nor snapshots. A job with neither starts no CAS.
//
// Each shard commits gradients under a ConsistencyPolicy.
// SyncConsistency (the zero value) is the barrier above: a round
// commits only after every worker's push, averaged and applied as one
// SGD step, bit-for-bit today's behavior. AsyncConsistency(K) applies
// every push the moment it arrives, scaled by LR/Workers so a full
// wave of async pushes moves the variables by the same total magnitude
// as one synchronous round — no barrier, so a straggler stops gating
// its peers — under a bounded staleness K: the shard bumps a variable
// version on every applied push, and a push computed from variables
// more than K versions old is refused with a retryable stale status,
// upon which the worker re-pulls that shard, recomputes against the
// fresh parameters and pushes again (TrainingWorker.StalenessRetries
// counts these; K = 0 demands fresh gradients, negative K is
// unbounded). A cluster runs one policy — WithConsistency on each
// server, WorkerSpec.Consistency on the workers,
// DistTrainConfig.Consistency on the facade — and the connection
// handshake carries it both ways, so a worker whose expectation differs
// from a shard's actual policy fails at construction instead of stranding on a barrier the other side never
// fills. The throughput-vs-convergence tradeoff this opens is measured
// by the Figure8Async experiment: 4 workers with a straggler, swept
// over K ∈ {0, 2, 8, ∞} on a deterministic virtual-time event
// schedule.
//
// The push path runs a negotiated gradient codec (GradCompression).
// NoGradCompression (the zero value) pushes raw float32 tensors —
// bit-for-bit the original wire format. Int8GradCompression quantizes
// each pushed tensor to int8 under one symmetric per-tensor scale
// (~4× fewer wire bytes); TopKGradCompression(f) sends only the top
// fraction f of entries by magnitude as sparse index+value pairs
// (~10×+ at f = 0.05). Both lossy codecs keep an error-feedback
// residual per variable on the worker: the mass a frame rounds away or
// drops is folded into the next push of that variable, so over time
// the optimizer receives the full gradient signal — only delayed — and
// convergence stays within a few percent of the uncompressed run. The
// residual is committed only when a push is acked as applied; an async
// staleness rejection leaves it untouched, since the parameter server
// discarded that frame, and the retry re-encodes a fresh gradient
// against the same residual. Residuals are worker state, not model
// state: checkpoints of the parameter-server variables are unaffected.
// The codec rides the same hello/manifest handshake as the consistency
// policy — WithCompression on the server, WorkerSpec.Compression on
// workers, DistTrainConfig.Compression on the facade — and a
// mixed-codec cluster fails at worker construction, because decoding a
// frame under the wrong codec would corrupt gradients silently.
// Encoded frames are charged their real (smaller) serialization vtime,
// so compression shows up honestly in the Figure 8 breakdown: the
// Figure8Compress experiment (securetf-bench -fig 8-compress) sweeps
// codec × {TLS, plain} at 4 workers / 2 shards, and the TLS-vs-plain
// latency gap — a wire-bytes story in §5.4 — shrinks with the codec.
//
// The synchronous barrier survives churn (§3.2's elasticity, the
// public-cloud half of the paper's deployment story). At a round's
// deadline, its first push's arrival plus the shard's RoundTimeout in
// virtual time (WithRoundTimeout, or DistTrainConfig.RoundTimeout on the
// facade), the workers that never pushed are declared dead and
// evicted, the barrier shrinks to the survivors, and the round commits
// from the gradients it has, averaged over the actual contributors so
// the update magnitude stays an average (a timed-out round nobody
// pushed into has nothing to commit). The deadline takes its turn once
// every frame stamped as early has been served, so who is evicted
// repeats from run to run; a worker that stays connected and sends
// nothing holds it back, and once a turn has waited a minute of wall
// time behind such a worker, the hang guard, the shard closes its
// connection. Every synchronous shard seats
// each worker once and takes one push from it a round, with or without
// a timeout, and a connection speaks only for the worker its hello
// named: a push before a hello, in another worker's name, or a hello
// naming a worker id at or past the shard's worker count, is refused.
// The shard's barrier and the federated coordinator's quorum
// admit pushes by one set of rules (internal/tf/dist's Round); they
// differ only in when a round closes. An evicted worker rejoins by
// re-running the same hello/manifest handshake that admitted it,
// folding back into the barrier at the next round boundary; contributions are
// summed in worker-id order rather than arrival order, so a run's
// whole trajectory is bit-reproducible regardless of who died when.
// The eviction/rejoin/shrunk-round counters surface in
// ParameterServer.Stats and DistTrainResult. Checkpointing makes the
// shards themselves expendable: WithCheckpoint (facade:
// DistCheckpointConfig{Every, FS, Key}, under checkpoints/ on FS)
// snapshots each shard's variables, round count and barrier generation
// into an STFD1 container every N committed rounds — written through the file-system
// shield before the round's barrier releases, so a crash leaves either
// the full round-N snapshot or the previous one, never a torn write —
// and WithResume (facade: Resume) restarts a shard, or a whole
// later job, exactly where the snapshot left off: the resumed
// trajectory is bit-identical to the uninterrupted one under every
// gradient codec. On the facade, Key reaches a shard only from the
// job's CAS after the shard attests, and that CAS audits every
// snapshot, so a shard restarted within the job refuses a snapshot the
// host rolled back (fsshield.ErrRolledBack). The audit record lives as
// long as the job's CAS: a later job, in this process or another,
// starts a CAS with no record and accepts the snapshots it finds, so a
// rollback across jobs goes unseen until the CAS's store outlives its
// process.
//
// What the host can do to a snapshot volume, then: without the volume
// key it reads nothing of a snapshot and changes no byte of one
// unnoticed, and within a job a rolled-back snapshot is refused. Across
// jobs a rollback is accepted,
// and securetf-worker train -checkpoint-dir keeps the volume key in
// plaintext beside the snapshots (volume.key), so the host's files alone
// open them (ROADMAP item 14).
//
// Churn and checkpointing are exercised by a deterministic
// fault-injection harness: a FaultPlan (ParseFaultPlan's
// "kill:w2@r1+rejoin2;restart:ps0@r2" grammar, or RandomFaultPlan's
// seeded churn schedules) handed to DistTrainConfig.Chaos — or
// securetf-worker train -chaos-plan — kills, stalls, delays and
// restarts at the scheduled rounds, on virtual time: a stall moves the
// worker's clock past the round's deadline, a restarted shard seats
// every live worker again (TrainingWorker.Redial) before the next
// round, and a run repeats from its seed. The Figure9Elastic experiment
// gates the payoff in CI: killing 1 of 4 workers mid-job costs less than
// that worker's share of round throughput (BenchmarkDistElastic's
// survivor-throughput floor).
//
// Federated learning (§6.2) promotes the paper's second production use
// case — hospitals jointly training a diagnostic model without sharing
// patient data — to a first-class subsystem. TrainFederated runs the
// whole deployment behind one call: an aggregator enclave executing
// FedAvg rounds over a client population simulated on virtual clocks,
// deterministic per-round cohort sampling (SampleFraction of Clients,
// drawn from a seeded PRG so every party derives the same cohort), and
// quorum rounds — a round commits as soon as Quorum uploads are
// accepted, so the slowest cohort members never gate progress; their
// late uploads are refused with a retryable wire flag and they rejoin
// the next round they are sampled into via the same manifest handshake
// that admitted them initially. StartFederatedAggregator and
// StartFederatedClient are the manual forms for deployments that stand
// up their own CAS topology (the federated_learning example attests
// the aggregator and provisions the masking secret through CAS session
// secrets). A federated client is the training worker's local step
// under another aggregation rule — the same replica, SGD update and
// per-connection link — so the §5.4 ownership rule holds here too: an
// upload's blobs are valid at the coordinator until it answers them (a
// PayloadTap that keeps them copies them). The coordinator's
// connections borrow their frames from one list, and the clients of
// one job, whose exchanges take turns, from another, so neither end
// keeps a frame a client: what the frames cost follows the exchanges
// in flight, not the population. A connection speaks for the
// one client id its hello carried. TrainFederated builds one model for
// the whole job: the aggregator's initial variables come from it, its
// gradient subgraph is built once, and its plan keeps the sessions over
// the shared graph, which sessions only read. A client holds one only
// while it trains, so the job opens as many as train at once, not one
// a client, and it draws its dropout masks from a stream of its own,
// whichever session it holds. Between rounds a
// client keeps its committed residual, one buffer a variable; the
// round's delta, which the assignment is decoded into and the quantizer
// overwrites with the residual its upload leaves, and its upload blob
// come from a list the job shares, from the assignment to the round's
// end for that client; an accepted upload copies the new residual in.
//
// Uploads are protected by pairwise-masked secure aggregation: every
// client blinds its update with one mask per neighbour, derived
// deterministically from a shared consortium secret the aggregator
// never holds, with pair-symmetric seeds and round-bound PRG expansion
// — client a adds what client b subtracts, so the masks cancel exactly
// in the aggregate and the coordinator learns only the quorum sum.
// Masking cannot be switched off here: the unmasked run the sum-only
// property tests compare against is internal to internal/federated.
// Neighbours are those of a per-round pairing graph (Bell et al.'s
// sparse form of Bonawitz et al.'s protocol): a Harary graph of degree
// d over the cohort of n in a seed-drawn ring order, where d is the
// larger of 2⌈log₂ n⌉ and n − Quorum + 1, rounded up to even and capped
// at n−1 (a cohort of 64 at quorum 51 masks with 14 peers, not 63; a
// cohort of up to 7 is the complete graph). The graph is d-connected, so
// the aggregator learns only the survivors' sum while the dead and the
// clients colluding with it number fewer than d, where the complete
// graph tolerated n−2; a client refuses an assignment thinner than
// min(n−1, 2⌈log₂ n⌉). Bonawitz's self-mask and its Shamir shares are
// not implemented. Cancellation is exact because updates
// are carried in integer rings, not floats: 64-bit fixed point for the
// dense and top-k codecs, a 16-bit ring for int8. An update exists in
// one form only, the packed little-endian ring words of its wire
// payload: the client quantizes into the upload blob, folds each pair's
// AES-CTR key stream into it through a 4 KiB chunk (four 16-bit lanes
// per 64-bit add for int8; internal/federated/ring), and the
// coordinator validates the whole upload and then adds the received
// bytes into a packed accumulator — no mask vector is materialised and
// nothing is widened to a word per coordinate. Masked
// aggregation composes with uplink compression (FedCompression;
// Int8FedCompression quantizes to public-clip int8 steps at ~4× fewer
// uplink bytes, TopKFedCompression(f) uploads only a shared
// pseudo-random fraction f of coordinates per variable, pattern
// derived from the round seed on both sides so no index bytes travel,
// ~1/f reduction; both keep client-side error-feedback residuals
// committed only on an accepted upload). When a cohort member drops
// after masks were applied — exactly the refused stragglers above —
// each survivor that paired with it reveals their pair's key for that
// round, not the pair's seed, to the coordinator, which subtracts the
// dead client's mask and recovers the survivors' sum; a client refuses
// to reveal all of its neighbours' keys, which would strip its own
// mask. Accepting the straggler's own late masked upload instead is
// what the refusal exists to prevent, since after the reveal the
// coordinator could unmask it: without the self-mask that refusal is
// still the defence.
// Ring sums are
// order-independent, so a whole federated job — sampling, quorum
// membership, refusals, the final global model — is bit-reproducible
// at a fixed seed under SconeSIM. Under SconeHW it is not yet at
// every shape: at 64 sampled and a quorum of 51, which uploads make
// the quorum differs between runs from the third to fifth round on
// (TestFederatedQuorumCutReplay logs where), presumably because the
// aggregator enclave's hardware charges follow how the host splits a
// frame into read calls; SconeSIM, which makes none of them, agrees.
//
// All costs are charged to a per-platform virtual clock, so programs are
// deterministic and fast while keeping the paper's performance shape;
// read latencies with Container.Clock. internal/sgx is the one price
// list: an enclave prices its own paging, MEE traffic, transitions,
// syscalls, crypto and compute, and everything else — wire frames,
// shield handshakes and records, CAS/IAS legs, the native baselines —
// charges an sgx.Meter a quantity and reads no cost field of Params
// (a tier-1 scan holds this). Configured durations are not prices:
// round timeouts, back-off, poll intervals, the federated step cost and
// fault-plan and straggler delays. Kept on purpose, as every pinned
// number rests on them: CAS/IAS JSON pays no wire serialization while
// dist frames do; CAS and IAS handshakes are charged to the client only,
// one for each connection it makes (Bootstrap and Attest make their own,
// Register and the audit calls share one), the network shield's to both
// ends; CAS traffic pays no shield record
// cost, since the CAS speaks its own crypto/tls; and a frame's sender
// pays one shield record charge (its header and payload go in one
// write, so one TLS record per 16 KiB and one syscall) while its
// receiver pays one per read call, two a frame (the header, then the
// payload).
//
// Every server in the module — CAS, IAS simulator, parameter server,
// federated coordinator, gateway, router — runs on internal/wire, which
// holds the one frame codec and is the only place a listener is
// accepted on. Inside a frame, and inside a model, graph or checkpoint
// file, every format is read and written through the same package's
// record Reader and Writer; the conventions (little-endian, u32 length
// prefixes, counts held against the remaining payload before they size
// anything, byte slices that alias the frame) are in its package
// comment.
// wire.Serve keeps accepting through Accept errors (a peer that fails a
// shielded listener's TLS handshake costs a 1 ms back-off, not the
// server), and its Close stops accepting, closes every live connection
// and waits for the handlers, so an idle peer cannot hang a shutdown.
//
// Both engines compute on one kernel library, internal/tf/kernels:
// matmul, convolution, max and average pooling, bias-add, ReLU, row
// softmax and row argmax over plain float32 slices. The kernels are
// pure — no tensors, no device, no clock, no allocation — and every
// charge to the cost model stays with the engine that called them
// (the tf session's execCtx.charge, the Lite interpreter's charge), so
// a kernel change moves wall time and never virtual time. Their
// summation order is fixed and independent of the thread count (threads
// only partition the output, into column blocks run by
// internal/par's helpers), which is what keeps the golden-pinned
// training trajectories and interpreter outputs bit-identical; a faster
// kernel has to keep that order or re-pin them on purpose. An idle
// helper spins about a millisecond before it parks: on real SGX that
// holds an enclave thread, which the virtual clock does not charge. The
// geometry constructors reject a window that does not fit its input,
// and the interpreter checks dtype, rank and bias length before it
// calls a kernel, so a hostile model file or request is an error, not a
// panic. A tf graph keeps it from one place, its ops' table (opRules in
// internal/tf: arity, dtypes, shape function): the builder,
// UnmarshalGraph and every Session.Run, feeds included, apply it, and
// the kernels check nothing but a gradient's forward cache.
//
// # Static invariants
//
// The properties this documentation promises are compiled into five
// machine-checked analyzers (internal/analysis), run as a
// `go vet -vettool` pass by cmd/securetf-vet:
//
//   - nowallclock: vtime-accounted packages (tf, dist, federated,
//     serving, core, wire, this facade) never read the ambient wall clock —
//     time.Now/Sleep/After and friends are flagged; files named
//     *_wall.go are exempt wholesale.
//   - detrand: deterministic-trajectory packages never draw from the
//     global math/rand or math/rand/v2 source; randomness comes from
//     an explicitly-seeded *rand.Rand threaded from config.
//   - shieldedfs: enclave code never does direct package os file I/O;
//     persistent state goes through fsapi.FS so it passes the FS
//     shield. internal/fsapi, cmd/ and examples/ are exempt.
//   - rawnet: SCONE-hosted packages never mint raw net/tls conns or
//     listeners; they come from the container's Listen/Dial, because a
//     raw conn skips the runtime's syscall charges and the network
//     shield. Every runtime opens its host sockets in internal/sysio.
//   - wirealloc: an integer decoded from wire bytes is bounds-checked
//     before it sizes a make() or bounds an append loop.
//
// A reviewed exception is annotated on the offending line, or the line
// above it, with a mandatory reason:
//
//	//securetf:allow <analyzer> <reason>
//
// Malformed directives (unknown analyzer, missing reason) are
// themselves diagnostics, so a typo cannot silently fail open.
package securetf
