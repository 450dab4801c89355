package suite

import (
	"sync"
	"time"

	securetf "github.com/securetf/securetf"
)

const (
	fedClients    = 128
	fedFraction   = 0.5 // 64 sampled per round
	fedQuorum     = 51  // 80 % of the sampled cohort
	fedLocalSteps = 2
	fedBatch      = 20
	fedLR         = 0.05
	fedImages     = 40 // per client
	fedModelSeed  = 1
	fedGateRounds = 8 // 0.64–0.71 after 9 rounds, 0.41–0.48 after 5
)

// fedRound is TrainFederated: 128 clients, half sampled per round, quorum
// 51, two local steps on the MNIST MLP, pairwise-masked aggregation, int8
// uplink, seed-driven sampling. The clients are the system's own
// Turnstile-scheduled actors (one runnable at a time), not load threads.
// Masking and its PRG (O(sampled²)), the uplink codec and the coordinator
// are the cost; tf compute is small, tflite and serving are absent.
//
// The op is an accepted client update, the latency sample a round.
type fedRound struct {
	opts Options

	xs, ys []*securetf.Tensor
	testX  *securetf.Tensor
	testY  *securetf.Tensor
}

// opsPerSecond: 51 accepted updates a round, a round every ≈2.1 s.
func (w *fedRound) opsPerSecond() float64 { return 24 }
func (w *fedRound) opName() string        { return "accepted client update" }
func (w *fedRound) layers() []string {
	return []string{"vtime", "device", "sgx", "scone", "seccrypto", "core", "datasets", "tf", "federated"}
}

// setup generates every client's shard and the test set. Everything else
// (aggregator launch, client handshakes) happens inside TrainFederated,
// which is the measured call.
func (w *fedRound) setup(rec *Recorder, parent int64) error {
	w.xs, w.ys = make([]*securetf.Tensor, fedClients), make([]*securetf.Tensor, fedClients)
	for id := range w.xs {
		var err error
		if w.xs[id], w.ys[id], err = mnist(rec, parent, fedImages, 0, w.opts.Seed*fedClients+int64(id), false); err != nil {
			return err
		}
	}
	var err error
	w.testX, w.testY, err = mnist(rec, parent, 0, testImages, w.opts.Seed+1000, true)
	return err
}

func (w *fedRound) setupVirtual() time.Duration { return 0 }
func (w *fedRound) prepare() error              { return nil }

// fedRounds turns an op count into rounds.
func fedRounds(ops int) int {
	r := (ops + fedQuorum/2) / fedQuorum
	if r < 1 {
		r = 1
	}
	return r
}

func (w *fedRound) measure(rec *Recorder, ops int) (*phase, error) {
	rounds := fedRounds(ops)
	// The payload tap fires on every accepted upload; the first tap of a
	// round marks where the previous round ended on the wall clock.
	var mu sync.Mutex
	firstTap := make(map[uint64]time.Time)
	sp := rec.Start(0, 0, "federated", "TrainFederated", nil)
	start := time.Now()
	res, err := securetf.TrainFederated(securetf.FederatedConfig{
		Clients: fedClients, SampleFraction: fedFraction, Quorum: fedQuorum, Rounds: rounds,
		LocalSteps: fedLocalSteps, BatchSize: fedBatch, LocalLR: fedLR,
		Compression: securetf.Int8FedCompression(), Seed: w.opts.Seed,
		NewModel: func() securetf.Model { return securetf.NewMNISTMLP(fedModelSeed) },
		ShardData: func(id int) (*securetf.Tensor, *securetf.Tensor, error) {
			return w.xs[id], w.ys[id], nil
		},
		PayloadTap: func(round uint64, _ uint32, _ string, _ []byte) {
			mu.Lock()
			if _, ok := firstTap[round]; !ok {
				firstTap[round] = time.Now()
			}
			mu.Unlock()
		},
	})
	wall := time.Since(start)
	sp.End()
	if err != nil {
		return nil, err
	}
	acc, err := accuracy(securetf.NewMNISTMLP(fedModelSeed), res.Vars, w.testX, w.testY)
	if err != nil {
		return nil, err
	}
	ph := &phase{
		// A round that did not commit takes its quorum of updates with it.
		ops:       res.Accepted,
		attempted: rounds * fedQuorum,
		failed:    rounds*fedQuorum - res.Accepted,
		wall:      wall,
		virtual:   res.Latency,
		wireBytes: res.UplinkBytes,
		accuracy:  acc,
		gated:     rounds >= fedGateRounds,
	}
	if ph.failed < 0 {
		ph.failed = 0
	}
	var marks []time.Time
	for r := 0; r < rounds; r++ {
		if t, ok := firstTap[uint64(r)]; ok {
			marks = append(marks, t)
		}
	}
	marks = append(marks, start.Add(wall))
	// A round is a latency sample and a throughput piece: between two
	// first uploads lie one round's quorum of accepted updates. The first
	// round is counted from the call, so it carries the aggregator launch
	// and the 128 handshakes.
	marks[0] = start
	for i := 1; i < len(marks); i++ {
		d := marks[i].Sub(marks[i-1])
		ph.latWall = append(ph.latWall, d)
		ph.chunks = append(ph.chunks, chunk{ops: fedQuorum, wall: d})
	}
	vround := res.Latency / time.Duration(rounds)
	ph.latVirt = []time.Duration{vround}

	uploads := float64(res.Accepted + res.Refusals)
	refused := 0.0
	if uploads > 0 {
		refused = float64(res.Refusals) / uploads
	}
	ph.layer = []Metric{
		{"federated.round_ms", "ms", ms(median(ph.latWall))},
		{"federated.round_vms", "vms", ms(vround)},
		{"federated.uplink_kb_per_update", "KiB", float64(res.UplinkBytes) / float64(res.Accepted) / 1024},
		{"federated.refused_share", "ratio", refused},
		{"federated.reveals_per_round", "count", float64(res.Reveals) / float64(rounds)},
		{"federated.final_accuracy", "ratio", acc},
	}
	return ph, nil
}

func (w *fedRound) close() {}
