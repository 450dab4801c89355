package federated

import (
	"maps"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
)

// scriptedRounds runs client 0 of a four-member cohort of the MNIST MLP
// (2 local steps at batch 10, int8 uplink, masked against its three
// peers) through rounds rounds against a coordinator that is a script
// on a link of its own: the handshake, then for every poll the same
// assignment of the initial variables and an accepted upload, then
// "training complete". onPoll runs when the r-th poll arrives, while
// the client waits for its answer: between two polls lies one client
// round, both ends of the connection, and nothing else in the process.
func scriptedRounds(tb testing.TB, rounds int, onPoll func(r int)) {
	tb.Helper()
	m := models.MNISTMLP(1)
	snapshot := dist.InitialVars(m.Graph)
	names := slices.Sorted(maps.Keys(snapshot))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		l := dist.NewLink(conn, nil)
		defer l.Close()
		meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
		for polls := 0; ; {
			msg, err := l.Receive(meter)
			if err != nil {
				return
			}
			resp := &dist.Message{Kind: dist.MsgAck, OK: true}
			switch {
			case msg.Kind == dist.MsgHello:
				resp = &dist.Message{Kind: dist.MsgManifest, OK: true, Names: names}
			case msg.Kind == dist.MsgFedPoll && polls == rounds:
				resp = &dist.Message{Kind: dist.MsgAck, Err: trainingCompleteErr}
			case msg.Kind == dist.MsgFedPoll:
				onPoll(polls)
				resp = &dist.Message{Kind: dist.MsgFedRound, OK: true, Round: uint64(polls), Seed: 1,
					Clients: cohortOf(4), Step: 3, Vars: snapshot}
				polls++
			}
			if _, err := l.Send(meter, resp); err != nil {
				return
			}
		}
	}()
	labels := make([]int, 40)
	for i := range labels {
		labels[i] = i % 10
	}
	c, err := NewClient(ClientConfig{
		Addr: ln.Addr().String(), Plan: planOf(tb, m), Population: 4, Secret: testSecret,
		XS: tf.RandNormal(tf.Shape{40, 28, 28, 1}, 1, 2), YS: tf.OneHot(labels, 10),
		BatchSize: 10, LocalSteps: 2, LocalLR: 0.05, Codec: dist.Int8Compression(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Run(); err != nil {
		tb.Fatal(err)
	}
	served.Wait()
	if got := c.Stats().Applied; got != rounds {
		tb.Fatalf("the client had %d uploads accepted in %d rounds", got, rounds)
	}
}

// TestWarmClientRoundAllocation is the federated round's ceiling, the
// twin of dist's TestWarmStepAllocation: a sampled client's round —
// assignment, local steps, masked upload — allocates at most 64 KiB,
// nothing the size of the model. (Each local step used to copy every
// variable three times and fetch its gradients into fresh storage, the
// assignment and the delta once more each, and both ends a frame buffer
// per message.)
func TestWarmClientRoundAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	const warm, measured = 3, 5
	marks := make([]uint64, 0, measured+1)
	scriptedRounds(t, warm+measured+1, func(r int) {
		if r >= warm {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			marks = append(marks, ms.TotalAlloc)
		}
	})
	perRound := make([]uint64, measured)
	for i := range perRound {
		perRound[i] = marks[i+1] - marks[i]
	}
	slices.Sort(perRound)
	const model = (784*128 + 128 + 128*10 + 10) * 4
	median := perRound[measured/2]
	if median > 64<<10 {
		t.Fatalf("a warm client round allocated %d bytes, want at most 64 KiB of a %d-byte model's round", median, model)
	}
	t.Logf("a warm client round allocated %d bytes (the model is %d)", median, model)
}

// BenchmarkClientRound is one sampled client's round of the fed-round
// workload's model in isolation: the reference a change to the local
// step or the link is measured against.
func BenchmarkClientRound(b *testing.B) {
	b.ReportAllocs()
	scriptedRounds(b, b.N, func(r int) {
		if r == 0 {
			b.ResetTimer() // the client is built and greeted; it waits for this answer
		}
	})
}

// mlpShard is a client shard for the MNIST MLP: n noise images, labels
// cycling through the ten classes.
func mlpShard(n int, seed int64) (*tf.Tensor, *tf.Tensor) {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 10
	}
	return tf.RandNormal(tf.Shape{n, 28, 28, 1}, 1, seed), tf.OneHot(labels, 10)
}

// BenchmarkFederatedJob is a whole Turnstile job of the fed-round
// workload's shape at a quarter of its size: 32 clients of the MNIST MLP,
// 16 sampled a round, quorum 13, int8 uplink, two rounds, so every round
// has three dead cohort members to unmask. It times what the scheduler
// decides: which of the clients' local training, quantizing and masking
// and the coordinator's unmasking can run at once. Client and
// coordinator set-up (32 replicas, 32 handshakes) is inside the
// measured job.
func BenchmarkFederatedJob(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		_, stats, _, _ := runJob(b, jobSpec{
			population: 32, sampleFrac: 0.5, quorum: 13, rounds: 2,
			codec: dist.Int8Compression(), seed: 3, turnstile: true,
			model: models.MNISTMLP, shard: mlpShard,
		})
		if stats.Rounds != 2 || stats.Reveals != 2*13 {
			b.Fatalf("the job committed %d rounds with %d reveals, want 2 and 26", stats.Rounds, stats.Reveals)
		}
	}
}

// dropoutModel is tinyModel with a hidden layer whose activations are
// dropped at rate one half while training.
func dropoutModel(seed int64) dist.Model {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 4})
	y := g.Placeholder("y", tf.Float32, tf.Shape{-1, 3})
	w1 := g.Variable("w1", tf.GlorotUniform(tf.Shape{4, 16}, 4, 16, seed))
	w2 := g.Variable("w2", tf.GlorotUniform(tf.Shape{16, 3}, 16, 3, seed+1))
	b := g.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{3}))
	logits := g.BiasAdd(g.MatMul(g.Dropout(g.Relu(g.MatMul(x, w1)), 0.5), w2), b)
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, y))
	return dist.Model{Graph: g, X: x, Y: y, Loss: loss, Logits: logits}
}

// TestDropoutStreamSurvivesPooling: a client's dropout masks come from
// its own stream, seeded with its ID+1, whichever of its plan's sessions
// it holds in a round. A Turnstile job over a model with dropout ends on
// the same variables twice, and on those of a reference in which every
// client trains on a session of its own, opened with tf.WithSeed(ID+1).
// A stream that stayed with the pooled session would be drawn by
// whichever clients held that session, in the order the scheduler let
// them train.
func TestDropoutStreamSurvivesPooling(t *testing.T) {
	spec := jobSpec{
		population: 12, sampleFrac: 0.5, quorum: 5, rounds: 3, codec: dist.Int8Compression(),
		seed: 4, turnstile: true, model: dropoutModel, shard: tinyShard,
	}
	first, _, _, _ := runJob(t, spec)
	second, _, _, _ := runJob(t, spec)
	assertSameVars(t, "a second run", first, second)
	spec.ownPlans = true
	reference, _, _, _ := runJob(t, spec)
	assertSameVars(t, "a session per client", first, reference)
}
