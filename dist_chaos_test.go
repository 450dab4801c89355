package securetf_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/shield/fsshield"
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

// rollbackFS is a host volume that rolls one shielded file back: each
// time the file is created anew it keeps the file and its metadata as
// they stood, one snapshot earlier, and the first time either is opened
// it writes those back — what a host that kept an old snapshot set can
// do to a restarting shard.
type rollbackFS struct {
	securetf.FS
	names  [2]string // the data file and its metadata
	mu     sync.Mutex
	prev   map[string][]byte
	rolled bool
}

func newRollbackFS(name string) *rollbackFS {
	return &rollbackFS{FS: securetf.NewMemFS(), names: [2]string{name, name + ".sfsmeta"}}
}

func (r *rollbackFS) Create(name string) (fsapi.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == r.names[0] {
		r.prev = make(map[string][]byte)
		for _, n := range r.names {
			if data, err := securetf.ReadFile(r.FS, n); err == nil {
				r.prev[n] = data
			}
		}
	}
	return r.FS.Create(name)
}

func (r *rollbackFS) Open(name string) (fsapi.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if (name == r.names[0] || name == r.names[1]) && !r.rolled && len(r.prev) == len(r.names) {
		r.rolled = true
		for n, data := range r.prev {
			if err := securetf.WriteFile(r.FS, n, data); err != nil {
				return nil, err
			}
		}
	}
	return r.FS.Open(name)
}

// TestDistRestartRefusesRolledBackSnapshot restarts shard 1 after round
// 4 while its host volume hands back the round-2 snapshot, data and
// metadata alike, which the volume key alone authenticates. The job's
// CAS recorded the round-4 snapshot, so the restart fails as a rollback
// rather than resuming from the stale state.
func TestDistRestartRefusesRolledBackSnapshot(t *testing.T) {
	const workers, shards, rounds, batch = 1, 2, 5, 10
	plan, err := securetf.ParseFaultPlan("restart:ps1@r4")
	if err != nil {
		t.Fatal(err)
	}
	host := newRollbackFS("checkpoints/shard-1.ckpt")
	_, err = securetf.TrainDistributed(securetf.DistTrainConfig{
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
		RoundTimeout: 30 * time.Second,
		Checkpoint:   securetf.DistCheckpointConfig{Every: 2, FS: host},
		Chaos:        plan,
	})
	if !host.rolled {
		t.Fatal("the restart never opened shard 1's snapshot")
	}
	if !errors.Is(err, fsshield.ErrRolledBack) {
		t.Fatalf("restart from a rolled-back snapshot: got %v, want %v", err, fsshield.ErrRolledBack)
	}
}
