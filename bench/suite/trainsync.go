package suite

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	securetf "github.com/securetf/securetf"
)

const (
	trainShards     = 2
	trainBatch      = 50
	trainLR         = 0.05
	trainImages     = 500 // per worker
	trainCkptEvery  = 10
	trainModelSeed  = 1
	testImages      = 256 // the fixed seeded test set final_accuracy is read on
	trainCkptPrefix = "checkpoints/"
	trainGateRounds = 30 // 0.87–0.91 after 34 rounds
)

// trainSync is the paper's Figure 8 with TLS: two parameter-server shards
// and two workers, one enclave each, all attested; MNIST CNN, synchronous
// rounds, no gradient codec, a shard snapshot every ten rounds written
// through the FS shield. The tf session kernels and their allocation are
// the wall cost, the dist wire and barrier the virtual cost, and it is
// the only workload that exercises the write side of the FS shield in its
// measured phase.
type trainSync struct {
	opts Options

	cl      *cluster
	shards  []*securetf.ParameterServer
	workers []*securetf.TrainingWorker
	workerC []*securetf.Container
	testX   *securetf.Tensor
	testY   *securetf.Tensor
	ready   time.Duration

	ckptMu sync.Mutex
	ckpts  []time.Duration // wall time of each shard snapshot
}

func (w *trainSync) opsPerSecond() float64 { return 13.5 }
func (w *trainSync) opName() string        { return "worker-step" }
func (w *trainSync) layers() []string {
	return []string{"vtime", "device", "sgx", "scone", "seccrypto", "fsshield", "netshield",
		"cas", "core", "datasets", "tf", "dist"}
}

func (w *trainSync) setup(rec *Recorder, parent int64) error {
	var err error
	if w.cl, err = startCluster(rec, parent, "train-sync", securetf.TensorFlowImage(), w.opts.Seed); err != nil {
		return err
	}
	vars := securetf.InitialVariables(securetf.NewMNISTCNN(trainModelSeed))
	addrs := make([]string, trainShards)
	for s := 0; s < trainShards; s++ {
		dir, err := w.opts.NewVolume()
		if err != nil {
			return err
		}
		c, err := w.cl.node(fmt.Sprintf("ps-shard-%d", s), securetf.ContainerConfig{
			HostFS:        securetf.NewDirFS(dir),
			FSShieldRules: []securetf.Rule{securetf.EncryptPrefix(trainCkptPrefix)},
		})
		if err != nil {
			return err
		}
		fsys, path := c.FS(), fmt.Sprintf("%sshard-%d.ckpt", trainCkptPrefix, s)
		write := func(data []byte) error {
			sp := rec.Start(0, -1, "dist", "checkpoint", c.Clock())
			start := time.Now()
			err := securetf.WriteFile(fsys, path, data)
			d := time.Since(start)
			sp.End()
			w.ckptMu.Lock()
			w.ckpts = append(w.ckpts, d)
			w.ckptMu.Unlock()
			return err
		}
		var ps *securetf.ParameterServer
		if err := rec.Do(parent, "dist", "StartParameterServer", c.Clock(), func() error {
			var addr net.Addr
			ps, addr, err = securetf.StartParameterServer(c, "127.0.0.1:0", vars, Clients, trainLR,
				securetf.WithShard(s, trainShards), securetf.WithCheckpoint(trainCkptEvery, write))
			if err == nil {
				addrs[s] = addr.String()
			}
			return err
		}); err != nil {
			return err
		}
		w.cl.onClose(func() { ps.Close() })
		w.shards = append(w.shards, ps)
	}
	for id := 0; id < Clients; id++ {
		c, err := w.cl.node(fmt.Sprintf("train-worker-%d", id), securetf.ContainerConfig{})
		if err != nil {
			return err
		}
		xs, ys, err := mnist(rec, parent, trainImages, 0, w.opts.Seed*Clients+int64(id), false)
		if err != nil {
			return err
		}
		var worker *securetf.TrainingWorker
		if err := rec.Do(parent, "dist", "StartTrainingWorker", c.Clock(), func() error {
			worker, err = securetf.StartTrainingWorker(c, securetf.WorkerSpec{
				ID: id, Addrs: addrs, ServerName: "parameter-server",
				Model: securetf.NewMNISTCNN(trainModelSeed), XS: xs, YS: ys, BatchSize: trainBatch,
			})
			return err
		}); err != nil {
			return err
		}
		w.cl.onClose(func() { worker.Close() })
		w.workers = append(w.workers, worker)
		w.workerC = append(w.workerC, c)
	}
	if w.testX, w.testY, err = mnist(rec, parent, 0, testImages, w.opts.Seed+1000, true); err != nil {
		return err
	}
	if err := rec.Do(parent, "dist", "warmup", w.workerC[0].Clock(), func() error {
		errs := make([]error, Clients)
		closedLoop(nil, warmupOps, func(client, _ int) (time.Duration, bool, error) {
			if errs[client] == nil {
				errs[client] = w.step(client)
			}
			return 0, errs[client] == nil, errs[client]
		})
		return errors.Join(errs...)
	}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.ready = maxClock(w.cl.nodes)
	return nil
}

// step runs one worker's next step. A worker that stops pushing strands
// its peer on the barrier, so an error closes the shards, which aborts the
// round for everyone.
func (w *trainSync) step(worker int) error {
	err := w.workers[worker].Step()
	if err != nil {
		for _, ps := range w.shards {
			ps.Close()
		}
	}
	return err
}

func (w *trainSync) setupVirtual() time.Duration { return w.ready }
func (w *trainSync) prepare() error              { return nil }

func (w *trainSync) measure(rec *Recorder, ops int) (*phase, error) {
	nodes := w.cl.nodes
	before, stats := clocks(nodes), enclaveStats(nodes)
	pushBefore, wireBefore := w.pushTotals()
	w.ckpts = w.ckpts[:0]
	var pull, compute, push time.Duration
	var mu sync.Mutex
	ph := closedLoop(rec, ops, func(client, op int) (time.Duration, bool, error) {
		clock := w.workerC[client].Clock()
		v0 := clock.Now()
		if err := w.step(client); err != nil {
			return 0, false, err
		}
		b := w.workers[client].LastBreakdown
		mu.Lock()
		pull, compute, push = pull+b.Pull, compute+b.Compute, push+b.Push
		mu.Unlock()
		return clock.Now() - v0, true, nil
	})
	ph.virtual = makespan(nodes, before)
	ph.stats = statsDelta(enclaveStats(nodes), stats)
	pushAfter, wireAfter := w.pushTotals()
	ph.wireBytes = pushAfter - pushBefore

	final := make(map[string]*securetf.Tensor)
	for _, ps := range w.shards {
		for name, t := range ps.Vars() {
			final[name] = t
		}
	}
	acc, err := accuracy(securetf.NewMNISTCNN(trainModelSeed), final, w.testX, w.testY)
	if err != nil {
		return nil, err
	}
	ph.accuracy, ph.gated = acc, ops/Clients >= trainGateRounds

	var stale, dropped, evictions int
	for _, worker := range w.workers {
		stale += worker.StalenessRetries()
		dropped += worker.DroppedPushes()
	}
	for _, ps := range w.shards {
		evictions += ps.Stats().Evictions
	}
	steps := float64(len(ph.latWall))
	if steps == 0 {
		steps = 1
	}
	perStep := func(d time.Duration) float64 { return ms(d) / steps }
	ph.layer = []Metric{
		{"dist.step_p50_ms", "ms", ms(median(ph.latWall))},
		{"dist.step_p95_ms", "ms", ms(quantile(ph.latWall, 0.95))},
		{"dist.step_p50_vms", "vms", ms(median(ph.latVirt))},
		{"dist.step_p95_vms", "vms", ms(quantile(ph.latVirt, 0.95))},
		{"dist.pull_vms", "vms", perStep(pull)},
		{"dist.compute_vms", "vms", perStep(compute)},
		{"dist.push_vms", "vms", perStep(push)},
		{"dist.push_wire_vms_per_shard", "vms", perStep(wireAfter-wireBefore) / trainShards},
		{"dist.push_kb_per_step", "KiB", float64(ph.wireBytes) / steps / 1024},
		{"dist.ckpt_ms", "ms", ms(median(w.ckpts))},
		{"dist.stale_retries", "count", float64(stale)},
		{"dist.evictions", "count", float64(evictions)},
		{"dist.dropped_pushes", "count", float64(dropped)},
		{"dist.final_accuracy", "ratio", acc},
	}
	return ph, nil
}

// pushTotals sums the workers' cumulative push bytes and push wire time.
func (w *trainSync) pushTotals() (bytes int64, wire time.Duration) {
	for _, worker := range w.workers {
		for _, n := range worker.PushBytes() {
			bytes += n
		}
		for _, d := range worker.PushWire() {
			wire += d
		}
	}
	return bytes, wire
}

func (w *trainSync) close() { w.cl.close() }
