// Distributed training: the paper's §5.4 architecture — a parameter
// server holding the model variables and N workers running synchronous
// data-parallel SGD, every node inside an SGX enclave, every connection
// through the network shield's TLS, with identities issued by the CAS
// after attestation.
//
// The parameter server is sharded across two nodes: the model variables
// are partitioned between them by name hash, and each worker fans its
// pulls and pushes out to both shards concurrently, so no single PS
// link carries the whole ~1.8 MB gradient push per worker per round.
//
// The example trains MNIST across three worker enclaves with one
// TrainDistributed call, which starts the job's CAS and attests every
// node to it, and reports the per-phase virtual time (pull / compute /
// push), the per-shard push wire time and the end-to-end latency the
// paper's Figure 8 measures — then repeats the job under the
// bounded-staleness async policy (apply-on-push, staleness ≤ 2) and
// with a top-k gradient codec, and finally survives a scripted fault
// plan: a worker killed and rejoining, a parameter-server shard
// restarted from its encrypted checkpoint, every round still committed
// (§3.2 elasticity).
//
// Run with:
//
//	go run ./examples/distributed_training
package main

import (
	"fmt"
	"log"
	"time"

	securetf "github.com/securetf/securetf"
)

const (
	workers   = 3
	psShards  = 2 // parameter-server nodes the variables are hash-partitioned across
	rounds    = 4
	batchSize = 100 // the paper's batch size
	lr        = 0.01
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- The attested cluster: 2 PS shards + 3 workers, one enclave
	// each. TrainDistributed starts a CAS for the job; every node
	// attests to it and receives its TLS identity, so every parameter
	// connection runs through the network shield. RoundTimeout bounds
	// how long a synchronous round may wait on a straggler (§3.2 fault
	// tolerance): if a worker dies mid-round the survivors get an error
	// instead of hanging forever.
	res, err := securetf.TrainDistributed(securetf.DistTrainConfig{
		Kind:      securetf.SconeHW,
		TLS:       true,
		Workers:   workers,
		PSShards:  psShards,
		Rounds:    rounds,
		BatchSize: batchSize,
		LR:        lr,
		NewModel:  func() securetf.Model { return securetf.NewMNISTCNN(1) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return shard(w)
		},
		RoundTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Printf("attested %d nodes to the job's CAS; %d parameter-server shards, TLS with CAS-issued identities\n",
		workers+psShards, psShards)
	for w, ls := range res.Losses {
		fmt.Printf("worker %d: loss %.3f\n", w, ls[len(ls)-1])
	}
	b := res.Breakdown
	fmt.Printf("last round (slowest worker): pull %v, compute %v, push %v; push wire into each shard %v/round\n",
		b.Pull, b.Compute, b.Push, res.PushWirePerShard)
	fmt.Printf("synchronous rounds committed on every shard: %d\n", res.Rounds)
	fmt.Printf("end-to-end training latency (virtual): %v\n", res.Latency)

	// --- Bounded-staleness async mode, via the one-call facade. ---
	// The same cluster shape, but each shard applies every gradient the
	// moment it arrives instead of barriering the round: a slow worker
	// no longer gates its peers, and the staleness bound K=2 rejects
	// (for re-pull + retry) any push computed against variables more
	// than two versions old.
	async, err := securetf.TrainDistributed(securetf.DistTrainConfig{
		Workers:     workers,
		PSShards:    psShards,
		Rounds:      rounds,
		BatchSize:   batchSize,
		LR:          lr,
		Consistency: securetf.AsyncConsistency(2),
		NewModel:    func() securetf.Model { return securetf.NewMNISTCNN(1) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return shard(w)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("async (staleness ≤ 2): %d steps/worker, final loss %.3f, %d staleness retries, latency %v\n",
		async.Rounds, async.FinalLoss, async.StalenessRetries, async.Latency)

	// --- Gradient compression on the push path. ---
	// The MNIST CNN pushes ~1.8 MB of float32 gradients per worker per
	// round; the top-k codec sends only the top 5% of entries by
	// magnitude and keeps the rest in a worker-side error-feedback
	// residual, cutting the wire bytes ~10× while the residual re-adds
	// every dropped entry to a later step. The codec is negotiated in
	// the connection handshake, exactly like the consistency policy.
	// The uncompressed baseline — push bytes and final loss — is the
	// synchronous cluster above: same workers, shards, rounds, batch,
	// learning rate and data, so no extra job is needed to compare.
	compressed, err := securetf.TrainDistributed(securetf.DistTrainConfig{
		Workers:     workers,
		PSShards:    psShards,
		Rounds:      rounds,
		BatchSize:   batchSize,
		LR:          lr,
		Compression: securetf.TopKGradCompression(0.05),
		NewModel:    func() securetf.Model { return securetf.NewMNISTCNN(1) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return shard(w)
		},
		RoundTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Printf("compressed (top-k f=0.05): push bytes %d → %d (%.1fx less wire), final loss %.3f vs %.3f uncompressed\n",
		res.PushBytes, compressed.PushBytes,
		float64(res.PushBytes)/float64(compressed.PushBytes),
		compressed.FinalLoss, res.FinalLoss)

	// --- Surviving churn: elasticity + checkpoint/restore. ---
	// A deterministic fault plan kills worker 2 before round 1 (it
	// rejoins a round later via the same manifest handshake that
	// admitted it) and restarts PS shard 0 from its round-2 checkpoint.
	// The elastic barrier evicts the dead worker after RoundTimeout,
	// shrinks to the survivors and commits the round from the gradients
	// it has; the restarted shard resumes from the STFD1 snapshot the
	// file-system shield encrypted two rounds earlier. Every round still
	// commits.
	plan, err := securetf.ParseFaultPlan("kill:w2@r1+rejoin1;restart:ps0@r2")
	if err != nil {
		return err
	}
	churn, err := securetf.TrainDistributed(securetf.DistTrainConfig{
		Workers:   workers,
		PSShards:  psShards,
		Rounds:    rounds,
		BatchSize: batchSize,
		LR:        lr,
		NewModel:  func() securetf.Model { return securetf.NewMNISTCNN(1) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return shard(w)
		},
		RoundTimeout: 2 * time.Second,
		Checkpoint:   securetf.DistCheckpointConfig{Every: 2},
		Chaos:        plan,
	})
	if err != nil {
		return err
	}
	fmt.Printf("churn (%s): %d/%d rounds committed — %d eviction(s), %d rejoin(s), %d shrunk round(s), final loss %.3f\n",
		plan, churn.Rounds, rounds, churn.Evictions, churn.Rejoins, churn.ShrunkRounds, churn.FinalLoss)
	return nil
}

// shard builds worker w's private training shard.
func shard(w int) (*securetf.Tensor, *securetf.Tensor, error) {
	fs := securetf.NewMemFS()
	if err := securetf.GenerateMNIST(fs, "shard", rounds*batchSize, 0, int64(31+w)); err != nil {
		return nil, nil, err
	}
	return loadTrain(fs)
}

func loadTrain(fs securetf.FS) (*securetf.Tensor, *securetf.Tensor, error) {
	xs, ys, err := securetf.LoadMNIST(fs, "shard/train-images-idx3-ubyte", "shard/train-labels-idx1-ubyte")
	if err != nil {
		return nil, nil, err
	}
	return xs, ys, nil
}
