package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/tf"
)

// Fig8AsyncRow is one point of the bounded-staleness sweep: the same
// fixed global step budget trained under one consistency policy, with
// one deliberately slow worker in the cluster.
type Fig8AsyncRow struct {
	// Policy labels the row: "sync" or "async K=…".
	Policy string
	// K is the async staleness bound (-1 unbounded); meaningless for
	// the sync row.
	K       int
	Workers int
	Shards  int
	// Steps is the global step budget — the total number of applied
	// worker steps, identical for every row so throughput is
	// comparable.
	Steps int
	// Latency is the end-to-end virtual time of the job (maximum over
	// all node clocks).
	Latency time.Duration
	// Throughput is Steps per virtual second — the axis async exists
	// to lift: without barriers the straggler stops gating its peers.
	Throughput float64
	// FinalLoss is the loss of the final parameter-server variables on
	// a held-out deterministic batch, the convergence cost of the
	// throughput win.
	FinalLoss float64
	// Retries counts pushes rejected by the staleness bound and
	// retried (always 0 for sync and K = ∞).
	Retries int
}

// stragglerPenalty is the extra virtual compute charged to worker 0
// inside each of its steps, between the pull/compute and the push —
// many times a healthy step's cost, so synchronous rounds are clearly
// gated by it. Charging it mid-step matters: the straggler's pull
// happens at a normal time (so it does not drag the parameter server's
// causal clock forward), but its push — the event everyone else could
// wait on — lands late.
const stragglerPenalty = 10 * time.Second

// Figure8Async extends Figure 8 along the consistency axis: 4 workers,
// a 2-shard parameter server, one straggler, and a fixed global step
// budget trained synchronously and then asynchronously at staleness
// bounds K ∈ {0, 2, 8, ∞}. The headline shape: every async point
// clears the sync baseline's virtual-time throughput, because
// apply-on-push removes the straggler from everyone else's critical
// path, while bounded K keeps the final loss within a few percent of
// the synchronous optimizer (each async contribution is scaled by
// LR/Workers, so async is a relaxation of the same update rule).
func Figure8Async(cfg Config) ([]Fig8AsyncRow, error) {
	cfg = cfg.withDefaults()
	const workers, shards = 4, 2
	budget := workers * cfg.Steps
	points := []struct {
		label string
		k     int
		sync  bool
	}{
		{"sync", 0, true},
		{"async K=0", 0, false},
		{"async K=2", 2, false},
		{"async K=8", 8, false},
		{"async K=inf", -1, false},
	}
	var rows []Fig8AsyncRow
	for _, point := range points {
		policy := securetf.AsyncConsistency(point.k)
		if point.sync {
			policy = securetf.SyncConsistency()
		}
		stats, err := fig8AsyncRun(cfg, workers, shards, budget, policy)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig8 async %s: %w", point.label, err)
		}
		row := Fig8AsyncRow{
			Policy: point.label, K: point.k, Workers: workers, Shards: shards,
			Steps: budget, Latency: stats.latency,
			Throughput: float64(budget) / stats.latency.Seconds(),
			FinalLoss:  stats.loss, Retries: stats.retries,
		}
		cfg.logf("fig8-async: %-12s %2d workers %9.2f s  %6.3f steps/s (loss %.4f, %d retries)",
			row.Policy, row.Workers, row.Latency.Seconds(), row.Throughput, row.FinalLoss, row.Retries)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigure8Async renders the consistency-sweep rows.
func PrintFigure8Async(w io.Writer, rows []Fig8AsyncRow) {
	fmt.Fprintln(w, "Figure 8 (async PS) — bounded-staleness training with a straggler")
	fmt.Fprintf(w, "%-14s %8s %7s %6s %12s %14s %10s %8s\n",
		"policy", "workers", "shards", "steps", "latency(s)", "steps/s-virt", "loss", "retries")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %7d %6d %12s %14.3f %10.4f %8d\n",
			r.Policy, r.Workers, r.Shards, r.Steps, fmtDurS(r.Latency), r.Throughput, r.FinalLoss, r.Retries)
	}
}

// fig8AsyncStats aggregates one policy run.
type fig8AsyncStats struct {
	latency time.Duration
	loss    float64
	retries int
}

// fig8AsyncNode is one worker enclave of the consistency sweep, with
// the handles the virtual-time scheduler needs.
type fig8AsyncNode struct {
	worker *securetf.TrainingWorker
	clock  *securetf.Clock
	staged bool
}

// fig8AsyncLaunch starts one HW-mode enclave node on its own platform.
func fig8AsyncLaunch(name string) (*securetf.Container, error) {
	platform, err := securetf.NewPlatform(name)
	if err != nil {
		return nil, err
	}
	return securetf.Launch(securetf.ContainerConfig{
		Kind:     securetf.SconeHW,
		Platform: platform,
		Image:    securetf.TensorFlowImage(),
		HostFS:   securetf.NewMemFS(),
	})
}

// fig8AsyncRun trains a fixed global step budget on a 4-worker,
// 2-shard HW-mode cluster under one consistency policy, with worker 0
// charged stragglerPenalty of extra virtual compute per step. Every
// node is put on its container by the public facade (Launch,
// StartParameterServer, StartTrainingWorker); only the step schedule is
// this experiment's own, because TrainDistributed has no hook between a
// step's compute and its push.
//
// The synchronous baseline runs the classic concurrent loop — the
// barrier itself serializes virtual time, so every round costs the
// straggler's pace. The async runs are driven by a discrete-event
// scheduler instead: each worker's step is split into its BeginStep
// (pull + compute) and FinishStep (push) phases and the phase whose
// worker has the smallest virtual clock runs next, in one goroutine.
// That is what a wall clock does to a real cluster — the slow worker's
// exchanges are rare events between many fast ones — and it makes the
// run fully deterministic, including which pushes exceed the staleness
// bound and retry.
func fig8AsyncRun(cfg Config, workers, shards, budget int, policy securetf.ConsistencyPolicy) (fig8AsyncStats, error) {
	initialVars := securetf.InitialVariables(fig8Model())

	// Parameter-server shard nodes.
	clocks := make([]*securetf.Clock, 0, shards+workers)
	pss := make([]*securetf.ParameterServer, shards)
	addrs := make([]string, shards)
	for s := range pss {
		c, err := fig8AsyncLaunch(fmt.Sprintf("async-ps-%d", s))
		if err != nil {
			return fig8AsyncStats{}, err
		}
		defer c.Close()
		ps, addr, err := securetf.StartParameterServer(c, "127.0.0.1:0", initialVars, workers, fig8LR,
			securetf.WithShard(s, shards), securetf.WithConsistency(policy))
		if err != nil {
			return fig8AsyncStats{}, err
		}
		defer ps.Close()
		pss[s], addrs[s] = ps, addr.String()
		clocks = append(clocks, c.Clock())
	}

	// Worker nodes. Every worker gets a shard big enough for the whole
	// budget, because under async the fast workers absorb the steps the
	// straggler never takes.
	nodes := make([]*fig8AsyncNode, workers)
	for id := range nodes {
		c, err := fig8AsyncLaunch(fmt.Sprintf("async-worker-%d", id))
		if err != nil {
			return fig8AsyncStats{}, err
		}
		defer c.Close()
		xs, ys := syntheticMNISTShard(cfg.BatchSize*budget, int64(100+id))
		worker, err := securetf.StartTrainingWorker(c, securetf.WorkerSpec{
			ID:          id,
			Addrs:       addrs,
			Model:       fig8Model(),
			XS:          xs,
			YS:          ys,
			BatchSize:   cfg.BatchSize,
			Consistency: policy,
		})
		if err != nil {
			return fig8AsyncStats{}, err
		}
		defer worker.Close()
		nodes[id] = &fig8AsyncNode{worker: worker, clock: c.Clock()}
		clocks = append(clocks, c.Clock())
	}

	if policy == securetf.SyncConsistency() {
		// Concurrent lockstep rounds, budget/workers each; the barrier
		// paces every round at the straggler's speed, because the round
		// only commits once the straggler's delayed push lands. A worker
		// that fails before pushing would leave the others blocked on a
		// barrier that can never fill, so the first failure closes the
		// shards to abort their rounds (Close is idempotent — the
		// deferred Closes above remain correct).
		var abortOnce sync.Once
		abort := func() {
			abortOnce.Do(func() {
				for _, ps := range pss {
					ps.Close()
				}
			})
		}
		rounds := budget / workers
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for id, node := range nodes {
			wg.Add(1)
			go func(id int, node *fig8AsyncNode) {
				defer wg.Done()
				defer func() {
					if errs[id] != nil {
						abort()
					}
				}()
				for r := 0; r < rounds; r++ {
					if errs[id] = node.worker.BeginStep(); errs[id] != nil {
						return
					}
					if id == 0 {
						node.clock.Advance(stragglerPenalty)
					}
					if errs[id] = node.worker.FinishStep(); errs[id] != nil {
						return
					}
				}
			}(id, node)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				return fig8AsyncStats{}, fmt.Errorf("sync worker %d: %w", id, err)
			}
		}
	} else {
		// Discrete-event schedule: always run the phase of the worker
		// with the smallest virtual clock (ties to the lowest id), in
		// one goroutine. The straggler's phases become rare events among
		// many fast ones — exactly what a wall clock does to a real
		// cluster — and the run is deterministic, including which pushes
		// exceed the staleness bound and retry.
		for done := 0; done < budget; {
			next := -1
			for id, node := range nodes {
				if next < 0 || node.clock.Now() < nodes[next].clock.Now() {
					next = id
				}
			}
			node := nodes[next]
			if !node.staged {
				if err := node.worker.BeginStep(); err != nil {
					return fig8AsyncStats{}, fmt.Errorf("async worker %d begin: %w", next, err)
				}
				if next == 0 {
					node.clock.Advance(stragglerPenalty)
				}
				node.staged = true
			} else {
				if err := node.worker.FinishStep(); err != nil {
					return fig8AsyncStats{}, fmt.Errorf("async worker %d finish: %w", next, err)
				}
				node.staged = false
				done++
			}
		}
	}

	var stats fig8AsyncStats
	for _, node := range nodes {
		stats.retries += node.worker.StalenessRetries()
	}
	for _, clock := range clocks {
		if t := clock.Now(); t > stats.latency {
			stats.latency = t
		}
	}
	loss, err := fig8AsyncEvalLoss(pss)
	if err != nil {
		return fig8AsyncStats{}, err
	}
	stats.loss = loss
	return stats, nil
}

// fig8AsyncEvalLoss scores the final parameter-server state — the
// shards' variables merged back into one replica — on a held-out
// deterministic batch, so sync and async rows are compared on the same
// footing regardless of which worker took which step.
func fig8AsyncEvalLoss(pss []*securetf.ParameterServer) (float64, error) {
	h := fig8Model()
	sess := tf.NewSession(h.Graph, tf.WithSeed(1))
	defer sess.Close()
	for _, ps := range pss {
		for name, v := range ps.Vars() {
			if err := sess.SetVariable(name, v); err != nil {
				return 0, err
			}
		}
	}
	xs, ys := syntheticMNISTShard(256, 424242)
	out, err := sess.Run(tf.Feeds{h.X: xs, h.Y: ys}, []*tf.Node{h.Loss})
	if err != nil {
		return 0, err
	}
	return float64(out[0].Floats()[0]), nil
}
