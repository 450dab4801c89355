package securetf_test

import (
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
)

// tensorsEqual compares two tensors bit-exactly.
func tensorsEqual(a, b *securetf.Tensor) bool {
	if a == nil || b == nil {
		return false
	}
	af, bf := a.Floats(), b.Floats()
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		if af[i] != bf[i] {
			return false
		}
	}
	return true
}

// TestDistChurnElastic survives a seeded churn schedule end to end:
// workers are killed and rejoin, one parameter-server shard is killed
// and restarted from its checkpoint, and the job still commits every
// round — with every wait hang-guarded, so a regression fails loudly
// instead of wedging the suite. The schedule is drawn from a fixed seed
// (kill w3 before round 1 rejoining a round later, kill w0 before
// round 3 rejoining two later) plus an explicit shard restart on the
// round-4 checkpoint boundary.
func TestDistChurnElastic(t *testing.T) {
	const workers, shards, rounds, batch = 4, 2, 6, 20
	plan := securetf.RandomFaultPlan(1, workers, rounds)
	kills := len(plan.Faults)
	expectRejoins := 0
	for _, f := range plan.Faults {
		if f.Step+f.Rejoin < rounds {
			expectRejoins++
		}
	}
	plan.Faults = append(plan.Faults, securetf.Fault{
		Kind: securetf.FaultRestartShard, Shard: 1, Step: 4,
	})

	type outcome struct {
		res *securetf.DistTrainResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
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
			RoundTimeout: time.Second,
			Checkpoint:   securetf.DistCheckpointConfig{Every: 2},
			Chaos:        plan,
		})
		done <- outcome{res, err}
	}()
	var res *securetf.DistTrainResult
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		res = o.res
	case <-time.After(3 * time.Minute):
		t.Fatal("churn run hung")
	}

	if res.Rounds != rounds {
		t.Fatalf("committed %d rounds under churn, want %d", res.Rounds, rounds)
	}
	if res.Evictions < kills {
		t.Errorf("Evictions = %d, want ≥ the %d scheduled kills", res.Evictions, kills)
	}
	if res.Rejoins < expectRejoins {
		t.Errorf("Rejoins = %d, want ≥ %d", res.Rejoins, expectRejoins)
	}
	if res.ShrunkRounds < 1 {
		t.Errorf("ShrunkRounds = %d, want ≥ 1", res.ShrunkRounds)
	}
	if len(res.FinalVars) == 0 {
		t.Error("churn run returned no final variables")
	}
	// Each worker records one loss per round it was alive for.
	deadRounds := make([]int, workers)
	for _, f := range plan.Faults {
		if f.Kind != securetf.FaultKillWorker {
			continue
		}
		end := rounds
		if f.Rejoin > 0 && f.Step+f.Rejoin < rounds {
			end = f.Step + f.Rejoin
		}
		deadRounds[f.Worker] += end - f.Step
	}
	for w, ls := range res.Losses {
		if want := rounds - deadRounds[w]; len(ls) != want {
			t.Errorf("worker %d recorded %d losses, want %d", w, len(ls), want)
		}
	}
}

// TestDistShardRestartBitIdentical pins the checkpoint/restore
// guarantee under every gradient codec: a job whose shards are killed
// and restarted from their snapshots — residuals alive on the workers
// throughout — produces the exact trajectory and final variables of an
// uninterrupted run.
func TestDistShardRestartBitIdentical(t *testing.T) {
	const workers, shards, rounds, batch = 2, 2, 4, 20
	run := func(c securetf.GradCompression, chaos bool) *securetf.DistTrainResult {
		t.Helper()
		cfg := securetf.DistTrainConfig{
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
			Compression:  c,
			RoundTimeout: 30 * time.Second,
		}
		if chaos {
			cfg.Checkpoint = securetf.DistCheckpointConfig{Every: 2}
			plan, err := securetf.ParseFaultPlan("restart:ps0@r2;restart:ps1@r2")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chaos = plan
		}
		res, err := securetf.TrainDistributed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, c := range []securetf.GradCompression{
		securetf.NoGradCompression(),
		securetf.Int8GradCompression(),
		securetf.TopKGradCompression(0.05),
	} {
		base := run(c, false)
		restarted := run(c, true)
		for w := range base.Losses {
			if len(base.Losses[w]) != len(restarted.Losses[w]) {
				t.Fatalf("%v: worker %d trajectory lengths differ: %d vs %d",
					c, w, len(base.Losses[w]), len(restarted.Losses[w]))
			}
			for r := range base.Losses[w] {
				if base.Losses[w][r] != restarted.Losses[w][r] {
					t.Fatalf("%v: worker %d round %d: restarted loss %v differs from uninterrupted %v",
						c, w, r, restarted.Losses[w][r], base.Losses[w][r])
				}
			}
		}
		for name, v := range base.FinalVars {
			got, ok := restarted.FinalVars[name]
			if !ok || !tensorsEqual(got, v) {
				t.Fatalf("%v: final variable %q differs after the shard restarts", c, name)
			}
		}
	}
}

// TestDistResumeAcrossJobs drives the cross-job resume path: job A
// trains half the rounds while checkpointing to a shared encrypted
// volume, job B resumes from that volume and finishes, and the stitched
// trajectory plus final variables are bit-identical to one
// uninterrupted job.
func TestDistResumeAcrossJobs(t *testing.T) {
	const workers, shards, rounds, batch = 2, 2, 4, 20
	shardData := func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
		return mlpShard(w, rounds, batch)
	}
	base := func(r int) securetf.DistTrainConfig {
		return securetf.DistTrainConfig{
			Kind:         securetf.SconeSIM,
			Workers:      workers,
			PSShards:     shards,
			Rounds:       r,
			BatchSize:    batch,
			LR:           0.05,
			NewModel:     func() securetf.Model { return securetf.NewMNISTMLP(3) },
			ShardData:    shardData,
			RoundTimeout: 30 * time.Second,
		}
	}
	uninterrupted, err := securetf.TrainDistributed(base(rounds))
	if err != nil {
		t.Fatal(err)
	}

	fs := securetf.NewMemFS()
	key, err := securetf.NewVolumeKey()
	if err != nil {
		t.Fatal(err)
	}
	cfgA := base(rounds / 2)
	cfgA.Checkpoint = securetf.DistCheckpointConfig{Every: rounds / 2, FS: fs, Key: key}
	jobA, err := securetf.TrainDistributed(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := base(rounds)
	cfgB.Checkpoint = securetf.DistCheckpointConfig{FS: fs, Key: key}
	cfgB.Resume = true
	jobB, err := securetf.TrainDistributed(cfgB)
	if err != nil {
		t.Fatal(err)
	}

	for w := range uninterrupted.Losses {
		stitched := append(append([]float64(nil), jobA.Losses[w]...), jobB.Losses[w]...)
		if len(stitched) != len(uninterrupted.Losses[w]) {
			t.Fatalf("worker %d: stitched trajectory has %d rounds, want %d",
				w, len(stitched), len(uninterrupted.Losses[w]))
		}
		for r := range stitched {
			if stitched[r] != uninterrupted.Losses[w][r] {
				t.Fatalf("worker %d round %d: resumed loss %v differs from uninterrupted %v",
					w, r, stitched[r], uninterrupted.Losses[w][r])
			}
		}
	}
	for name, v := range uninterrupted.FinalVars {
		got, ok := jobB.FinalVars[name]
		if !ok || !tensorsEqual(got, v) {
			t.Fatalf("final variable %q differs between the resumed and uninterrupted jobs", name)
		}
	}
	if jobB.Rounds != rounds {
		t.Fatalf("resumed job reports %d rounds, want %d", jobB.Rounds, rounds)
	}
}
