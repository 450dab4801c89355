package securetf_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
)

// mlpShard builds worker w's deterministic synthetic MNIST shard. It
// returns errors rather than failing the test because it runs inside
// TrainDistributed's worker goroutines (via ShardData), where t.Fatal
// is not allowed.
func mlpShard(w, rounds, batch int) (*securetf.Tensor, *securetf.Tensor, error) {
	fs := securetf.NewMemFS()
	if err := securetf.GenerateMNIST(fs, "shard", rounds*batch, 0, int64(31+w)); err != nil {
		return nil, nil, err
	}
	return securetf.LoadMNIST(fs, "shard/train-images-idx3-ubyte", "shard/train-labels-idx1-ubyte")
}

// distTrain runs TrainDistributed on the MLP with fixed seeds.
func distTrain(t *testing.T, workers, shards, rounds, batch int) *securetf.DistTrainResult {
	t.Helper()
	res, err := securetf.TrainDistributed(securetf.DistTrainConfig{
		Kind:      securetf.SconeSIM,
		Workers:   workers,
		PSShards:  shards,
		Rounds:    rounds,
		BatchSize: batch,
		LR:        0.05,
		NewModel:  func() securetf.Model { return securetf.NewMNISTMLP(3) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return mlpShard(w, rounds, batch)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTrainDistributedMatchesManualSinglePS checks the facade's
// backstop guarantee: TrainDistributed with PSShards: 1 reproduces the
// exact per-round loss trajectory of a manually assembled single-PS
// cluster (the pre-sharding deployment).
func TestTrainDistributedMatchesManualSinglePS(t *testing.T) {
	const workers, rounds, batch = 2, 4, 20

	// Manual cluster: the original StartParameterServer /
	// StartTrainingWorker path on one PS node.
	psPlatform, err := securetf.NewPlatform("manual-ps")
	if err != nil {
		t.Fatal(err)
	}
	psC, err := securetf.Launch(securetf.ContainerConfig{
		Kind:     securetf.SconeSIM,
		Platform: psPlatform,
		Image:    securetf.TensorFlowImage(),
		HostFS:   securetf.NewMemFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer psC.Close()
	ps, addr, err := securetf.StartParameterServer(
		psC, "127.0.0.1:0", securetf.InitialVariables(securetf.NewMNISTMLP(3)), workers, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	manual := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			platform, err := securetf.NewPlatform("manual-worker")
			if err != nil {
				errs[w] = err
				return
			}
			c, err := securetf.Launch(securetf.ContainerConfig{
				Kind:     securetf.SconeSIM,
				Platform: platform,
				Image:    securetf.TensorFlowImage(),
				HostFS:   securetf.NewMemFS(),
			})
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			xs, ys, err := mlpShard(w, rounds, batch)
			if err != nil {
				errs[w] = err
				return
			}
			worker, err := securetf.StartTrainingWorker(c, securetf.WorkerSpec{
				ID: w, Addrs: []string{addr.String()},
				Model: securetf.NewMNISTMLP(3),
				XS:    xs, YS: ys, BatchSize: batch,
			})
			if err != nil {
				errs[w] = err
				return
			}
			defer worker.Close()
			for r := 0; r < rounds; r++ {
				if errs[w] = worker.Step(); errs[w] != nil {
					return
				}
				manual[w] = append(manual[w], worker.LastLoss)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("manual worker %d: %v", w, err)
		}
	}

	res := distTrain(t, workers, 1, rounds, batch)
	for w := 0; w < workers; w++ {
		if len(res.Losses[w]) != rounds {
			t.Fatalf("worker %d recorded %d losses, want %d", w, len(res.Losses[w]), rounds)
		}
		for r := 0; r < rounds; r++ {
			if res.Losses[w][r] != manual[w][r] {
				t.Fatalf("worker %d round %d: TrainDistributed loss %v, manual loss %v",
					w, r, res.Losses[w][r], manual[w][r])
			}
		}
	}
	if res.Rounds != rounds {
		t.Fatalf("committed rounds = %d, want %d", res.Rounds, rounds)
	}
	if res.Breakdown.Pull <= 0 || res.Breakdown.Compute <= 0 || res.Breakdown.Push <= 0 {
		t.Fatalf("breakdown has a zero phase: %+v", res.Breakdown)
	}
}

// TestTrainDistributedShardingInvariance checks that the shard count is
// purely a placement decision — identical losses at 1, 2 and 4 shards —
// while the per-shard push wire time strictly shrinks, the bandwidth
// win sharding exists for.
func TestTrainDistributedShardingInvariance(t *testing.T) {
	const workers, rounds, batch = 2, 3, 20
	base := distTrain(t, workers, 1, rounds, batch)
	prevWire := base.PushWirePerShard
	for _, shards := range []int{2, 4} {
		res := distTrain(t, workers, shards, rounds, batch)
		for w := range base.Losses {
			for r := range base.Losses[w] {
				if res.Losses[w][r] != base.Losses[w][r] {
					t.Fatalf("shards=%d worker %d round %d: loss %v differs from 1-shard %v",
						shards, w, r, res.Losses[w][r], base.Losses[w][r])
				}
			}
		}
		if res.PushWirePerShard >= prevWire {
			t.Fatalf("per-shard push wire did not shrink at %d shards: %v (previous %v)",
				shards, res.PushWirePerShard, prevWire)
		}
		prevWire = res.PushWirePerShard
	}
	if base.FinalLoss >= base.Losses[0][0] {
		t.Fatalf("training did not learn: losses %v", base.Losses[0])
	}
}

// TestTrainDistributedTLS smoke-tests the Figure 8 "w/ TLS" series
// through the facade: a sharded cluster with every connection through
// the network shield still trains.
func TestTrainDistributedTLS(t *testing.T) {
	// SconeSIM's session admits simulation-mode quotes and SconeHW's
	// does not; both attest every node for its TLS identity.
	for _, kind := range []securetf.RuntimeKind{securetf.SconeSIM, securetf.SconeHW} {
		res, err := securetf.TrainDistributed(securetf.DistTrainConfig{
			Kind:      kind,
			TLS:       true,
			Workers:   1,
			PSShards:  2,
			Rounds:    2,
			BatchSize: 10,
			LR:        0.05,
			NewModel:  func() securetf.Model { return securetf.NewMNISTMLP(3) },
			ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
				return mlpShard(w, 2, 10)
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Latency <= 0 {
			t.Fatalf("%v: virtual latency did not advance", kind)
		}
	}
}

// TestTrainDistributedWorkerFailureAborts pins the no-deadlock
// guarantee: with RoundTimeout disabled, one worker failing before its
// first push must abort the cluster and surface the root cause, not
// leave the surviving worker blocked forever on an unfillable barrier.
func TestTrainDistributedWorkerFailureAborts(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := securetf.TrainDistributed(securetf.DistTrainConfig{
			Kind:      securetf.SconeSIM,
			Workers:   2,
			Rounds:    2,
			BatchSize: 10,
			LR:        0.05,
			NewModel:  func() securetf.Model { return securetf.NewMNISTMLP(3) },
			ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
				if w == 1 {
					return nil, nil, errors.New("shard data unavailable")
				}
				return mlpShard(w, 2, 10)
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("TrainDistributed succeeded with a failed worker")
		}
		if !strings.Contains(err.Error(), "shard data unavailable") {
			t.Fatalf("root cause not surfaced: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("TrainDistributed deadlocked on a failed worker")
	}
}

// TestTrainDistributedAsync runs the facade under AsyncConsistency:
// the job completes without barriers, learns, and reports a round count
// equal to the per-worker step count. RoundTimeout is left at zero on
// purpose — async shards never block, so nothing needs a timeout.
func TestTrainDistributedAsync(t *testing.T) {
	const workers, rounds, batch = 2, 4, 20
	res, err := securetf.TrainDistributed(securetf.DistTrainConfig{
		Kind:        securetf.SconeSIM,
		Workers:     workers,
		PSShards:    2,
		Rounds:      rounds,
		BatchSize:   batch,
		LR:          0.05,
		Consistency: securetf.AsyncConsistency(8),
		NewModel:    func() securetf.Model { return securetf.NewMNISTMLP(3) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return mlpShard(w, rounds, batch)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Fatalf("async Rounds = %d, want the per-worker step count %d", res.Rounds, rounds)
	}
	for w := 0; w < workers; w++ {
		if len(res.Losses[w]) != rounds {
			t.Fatalf("worker %d recorded %d losses, want %d", w, len(res.Losses[w]), rounds)
		}
		if res.Losses[w][rounds-1] >= res.Losses[w][0] {
			t.Fatalf("worker %d did not learn under async: %v", w, res.Losses[w])
		}
	}
	if res.Latency <= 0 {
		t.Fatal("virtual latency did not advance")
	}
}

// TestTrainDistributedSyncTrajectoryUnchangedByAsyncSupport re-pins the
// backstop acceptance: the synchronous facade path must stay bit-for-bit
// identical whether or not the async machinery exists — an explicit
// SyncConsistency() and the zero value produce the same trajectory.
func TestTrainDistributedSyncTrajectoryUnchangedByAsyncSupport(t *testing.T) {
	const workers, rounds, batch = 2, 3, 20
	base := distTrain(t, workers, 2, rounds, batch)
	explicit, err := securetf.TrainDistributed(securetf.DistTrainConfig{
		Kind:        securetf.SconeSIM,
		Workers:     workers,
		PSShards:    2,
		Rounds:      rounds,
		BatchSize:   batch,
		LR:          0.05,
		Consistency: securetf.SyncConsistency(),
		NewModel:    func() securetf.Model { return securetf.NewMNISTMLP(3) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return mlpShard(w, rounds, batch)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range base.Losses {
		for r := range base.Losses[w] {
			if base.Losses[w][r] != explicit.Losses[w][r] {
				t.Fatalf("worker %d round %d: explicit sync loss %v differs from default %v",
					w, r, explicit.Losses[w][r], base.Losses[w][r])
			}
		}
	}
	if explicit.StalenessRetries != 0 {
		t.Fatalf("synchronous cluster reported %d staleness retries", explicit.StalenessRetries)
	}
}

// TestTrainDistributedCompressed runs the facade under both lossy
// gradient codecs: the job trains end to end through sharded,
// codec-negotiated pushes, the loss still falls, the push wire bytes
// shrink against the raw baseline, and an explicit NoGradCompression
// reproduces the default trajectory bit-for-bit.
func TestTrainDistributedCompressed(t *testing.T) {
	const workers, shards, rounds, batch = 2, 2, 4, 20
	run := func(c securetf.GradCompression) *securetf.DistTrainResult {
		res, err := securetf.TrainDistributed(securetf.DistTrainConfig{
			Kind:        securetf.SconeSIM,
			Workers:     workers,
			PSShards:    shards,
			Rounds:      rounds,
			BatchSize:   batch,
			LR:          0.05,
			Compression: c,
			NewModel:    func() securetf.Model { return securetf.NewMNISTMLP(3) },
			ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
				return mlpShard(w, rounds, batch)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := distTrain(t, workers, shards, rounds, batch)
	raw := run(securetf.NoGradCompression())
	for w := range base.Losses {
		for r := range base.Losses[w] {
			if raw.Losses[w][r] != base.Losses[w][r] {
				t.Fatalf("worker %d round %d: explicit NoGradCompression loss %v differs from default %v",
					w, r, raw.Losses[w][r], base.Losses[w][r])
			}
		}
	}
	if raw.PushBytes != base.PushBytes {
		t.Fatalf("explicit NoGradCompression pushed %d bytes, default pushed %d", raw.PushBytes, base.PushBytes)
	}
	for _, c := range []securetf.GradCompression{
		securetf.Int8GradCompression(),
		securetf.TopKGradCompression(0.05),
	} {
		res := run(c)
		for w := 0; w < workers; w++ {
			if res.Losses[w][rounds-1] >= res.Losses[w][0] {
				t.Fatalf("%v: worker %d did not learn: %v", c, w, res.Losses[w])
			}
		}
		if res.PushBytes >= raw.PushBytes {
			t.Fatalf("%v: pushed %d bytes, raw pushed %d — no wire win", c, res.PushBytes, raw.PushBytes)
		}
	}
}

// TestTrainDistributedValidation spot-checks the config guards.
func TestTrainDistributedValidation(t *testing.T) {
	model := func() securetf.Model { return securetf.NewMNISTMLP(3) }
	data := func(int) (*securetf.Tensor, *securetf.Tensor, error) { return nil, nil, nil }
	bad := []securetf.DistTrainConfig{
		{Workers: 0, Rounds: 1, BatchSize: 1, LR: 0.1, NewModel: model, ShardData: data},
		{Workers: 1, Rounds: 0, BatchSize: 1, LR: 0.1, NewModel: model, ShardData: data},
		{Workers: 1, Rounds: 1, BatchSize: 1, LR: 0.1, ShardData: data},
		{Workers: 1, PSShards: -1, Rounds: 1, BatchSize: 1, LR: 0.1, NewModel: model, ShardData: data},
		{Workers: 1, Rounds: 1, BatchSize: 1, LR: 0.1, NewModel: model, ShardData: data, Resume: true},
		// An asynchronous shard never blocks, so it has no round to time out.
		{Workers: 1, Rounds: 1, BatchSize: 1, LR: 0.1, NewModel: model, ShardData: data, Consistency: securetf.AsyncConsistency(2), RoundTimeout: time.Second},
		// A native node has no enclave to attest, so the CAS provisions it
		// neither a TLS identity nor the snapshot volume key.
		{Kind: securetf.NativeGlibc, TLS: true, Workers: 1, Rounds: 1, BatchSize: 1, LR: 0.1, NewModel: model, ShardData: data},
		{Kind: securetf.NativeGlibc, Checkpoint: securetf.DistCheckpointConfig{Every: 2}, Workers: 1, Rounds: 1, BatchSize: 1, LR: 0.1, NewModel: model, ShardData: data},
	}
	for i, cfg := range bad {
		_, err := securetf.TrainDistributed(cfg)
		if err == nil {
			t.Errorf("case %d: invalid DistTrainConfig accepted", i)
		} else if cfg.Kind == securetf.NativeGlibc && !strings.Contains(err.Error(), securetf.NativeGlibc.String()) {
			t.Errorf("case %d: error %q does not name the %v kind", i, err, cfg.Kind)
		}
	}
}

// TestTrainDistributedReplay runs one synchronous job — 3 workers, 1
// shard, 4 rounds, the MNIST MLP at batch 50 — twice in one process on
// each shielded kind, and wants the losses and the final variables bit
// for bit the same, and the two Latencies within replayTolerance. Its
// shard has no round timeout, so it serves frames in the order they
// were sent; what the Latencies may still differ by is the receive-side
// charge of each frame's first bytes (open: item 0).
func TestTrainDistributedReplay(t *testing.T) {
	const workers, rounds, batch = 3, 4, 50
	for _, kind := range []securetf.RuntimeKind{securetf.SconeHW, securetf.SconeSIM} {
		var runs [2]*securetf.DistTrainResult
		for i := range runs {
			res, err := securetf.TrainDistributed(securetf.DistTrainConfig{
				Kind:      kind,
				Workers:   workers,
				PSShards:  1,
				Rounds:    rounds,
				BatchSize: batch,
				LR:        0.05,
				NewModel:  func() securetf.Model { return securetf.NewMNISTMLP(3) },
				ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
					return mlpShard(w, rounds, batch)
				},
			})
			if err != nil {
				t.Fatalf("%v run %d: %v", kind, i, err)
			}
			runs[i] = res
		}
		a, b := runs[0], runs[1]
		if len(a.Losses) != workers || len(b.Losses) != workers {
			t.Fatalf("%v: losses for %d and %d workers, want %d", kind, len(a.Losses), len(b.Losses), workers)
		}
		for w := range a.Losses {
			if !slices.EqualFunc(a.Losses[w], b.Losses[w], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Errorf("%v: worker %d's losses %v, then %v", kind, w, a.Losses[w], b.Losses[w])
			}
		}
		if len(a.FinalVars) == 0 || len(a.FinalVars) != len(b.FinalVars) {
			t.Fatalf("%v: %d and %d final variables", kind, len(a.FinalVars), len(b.FinalVars))
		}
		for name, v := range a.FinalVars {
			got, ok := b.FinalVars[name]
			if !ok || !slices.Equal(floatBits(got), floatBits(v)) {
				t.Errorf("%v: final variable %q differs between the runs", kind, name)
			}
		}
		if d := a.Latency - b.Latency; d > replayTolerance || d < -replayTolerance {
			t.Errorf("%v: Latency %v, then %v: more than %v apart", kind, a.Latency, b.Latency, replayTolerance)
		}
		t.Logf("%v: Latency %v, then %v (open: item 0)", kind, a.Latency, b.Latency)
	}
}

// replayTolerance is how far two runs of one job's Latency may lie
// apart: over 20 pairs at each of GOMAXPROCS 1, 2 and 8 on a 2-vCPU
// x86-64 host, SconeHW's pairs differed by at most 12 ns and SconeSIM's
// by 0.52 µs.
const replayTolerance = 5 * time.Microsecond

// floatBits is a tensor's elements as bits, so that -0 and NaN compare.
func floatBits(t *securetf.Tensor) []uint32 {
	out := make([]uint32, 0, len(t.Floats()))
	for _, v := range t.Floats() {
		out = append(out, math.Float32bits(v))
	}
	return out
}
