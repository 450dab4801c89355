package securetf_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
)

// fedTrain runs TrainFederated on the MLP with fixed seeds and
// deterministic synthetic shards.
func fedTrain(t *testing.T, cfg securetf.FederatedConfig) *securetf.FederatedResult {
	t.Helper()
	cfg.Kind = securetf.SconeSIM
	cfg.NewModel = func() securetf.Model { return securetf.NewMNISTMLP(3) }
	cfg.ShardData = func(client int) (*securetf.Tensor, *securetf.Tensor, error) {
		return mlpShard(client, cfg.Rounds*cfg.LocalSteps, cfg.BatchSize)
	}
	res, err := securetf.TrainFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTrainFederatedEndToEnd runs a full masked job through the facade
// and checks the accounting: every round completes at quorum, the
// straggler is refused each round and its dropout is resolved by
// survivor seed reveals, and the virtual latency reflects the
// simulated local compute.
func TestTrainFederatedEndToEnd(t *testing.T) {
	const clients, quorum, rounds = 5, 4, 3
	res := fedTrain(t, securetf.FederatedConfig{
		Clients:           clients,
		Quorum:            quorum,
		Rounds:            rounds,
		LocalSteps:        2,
		BatchSize:         8,
		LocalLR:           0.05,
		Seed:              7,
		StragglerFraction: 0.2, // exactly client 4
		StragglerDelay:    10 * time.Second,
	})
	if res.Rounds != rounds {
		t.Fatalf("completed %d rounds, want %d", res.Rounds, rounds)
	}
	if res.Accepted != quorum*rounds {
		t.Fatalf("accepted %d uploads, want %d", res.Accepted, quorum*rounds)
	}
	// The straggler's first push lands after round 0 closed at quorum
	// and is refused; by the time its 10s delay elapses again the job is
	// complete, so it never pushes a second time.
	if res.Refusals != 1 {
		t.Fatalf("refused %d uploads, want 1", res.Refusals)
	}
	if res.Reveals != quorum*rounds {
		t.Fatalf("got %d seed reveals, want %d (each survivor unmasks the straggler)",
			res.Reveals, quorum*rounds)
	}
	if res.UplinkBytes == 0 {
		t.Fatal("uplink byte accounting missing")
	}
	if len(res.Vars) == 0 {
		t.Fatal("no final variables")
	}
	for name, v := range res.Vars {
		for _, x := range v.Floats() {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("variable %q diverged", name)
			}
		}
	}
	// The straggler's one delayed round puts 10s on its clock; Latency
	// is the max over all clocks so it must reflect that.
	if res.Latency < 10*time.Second {
		t.Fatalf("latency %v does not reflect the stragglers' virtual delays", res.Latency)
	}
}

// TestTrainFederatedDeterministic checks the facade contract that a
// fixed seed makes the whole job — sampling, quorum membership and the
// final model — bit-reproducible, including under top-k compression
// where the coordinate patterns are seed-derived too.
func TestTrainFederatedDeterministic(t *testing.T) {
	run := func() *securetf.FederatedResult {
		return fedTrain(t, securetf.FederatedConfig{
			Clients:        6,
			SampleFraction: 0.5,
			Quorum:         3,
			Rounds:         2,
			LocalSteps:     2,
			BatchSize:      8,
			LocalLR:        0.05,
			Compression:    securetf.TopKFedCompression(0.25),
			Seed:           21,
		})
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Accepted != b.Accepted || a.Latency != b.Latency {
		t.Fatalf("run stats diverged: %+v vs %+v", a, b)
	}
	for name, av := range a.Vars {
		bv, ok := b.Vars[name]
		if !ok {
			t.Fatalf("variable %q missing from second run", name)
		}
		af, bf := av.Floats(), bv.Floats()
		for i := range af {
			if math.Float32bits(af[i]) != math.Float32bits(bf[i]) {
				t.Fatalf("variable %q[%d] not bit-reproducible: %v vs %v", name, i, af[i], bf[i])
			}
		}
	}
}

// TestTrainFederatedSampledInt8 runs the facade at the fed-round
// benchmark's settings in small: int8 uplink, half the population sampled
// a round, a quorum below the cohort and stragglers, so rounds close
// with cohort members still out and survivors reveal their seeds. It
// pins the job's accounting and the final variables bit for bit. The
// virtual latency is not pinned: the SGX aggregator charges paging per
// read call, which the host decides.
func TestTrainFederatedSampledInt8(t *testing.T) {
	res := fedTrain(t, securetf.FederatedConfig{
		Clients:           8,
		SampleFraction:    0.5,
		Quorum:            3,
		Rounds:            3,
		LocalSteps:        2,
		BatchSize:         8,
		LocalLR:           0.05,
		Compression:       securetf.Int8FedCompression(),
		Seed:              11,
		StragglerFraction: 0.25,
		StragglerDelay:    30 * time.Millisecond,
	})
	names := make([]string, 0, len(res.Vars))
	for name := range res.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name))
		for _, f := range res.Vars[name].Floats() {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(f)))
		}
	}
	got := fmt.Sprintf("rounds %d accepted %d refusals %d reveals %d uplink %d vars %x",
		res.Rounds, res.Accepted, res.Refusals, res.Reveals, res.UplinkBytes, h.Sum(nil))
	const want = "rounds 3 accepted 9 refusals 3 reveals 9 uplink 1832076 vars 1f83aa8f74c51292ae7ec3f63f981984a7c67043905b945250ccff68bddb5935"
	if got != want {
		t.Fatalf("the job ended at\n%s\nwant\n%s", got, want)
	}
}

// TestTrainFederatedConfigErrors checks the facade rejects unusable
// configurations before launching anything.
func TestTrainFederatedConfigErrors(t *testing.T) {
	base := func() securetf.FederatedConfig {
		return securetf.FederatedConfig{
			Kind:       securetf.SconeSIM,
			Clients:    3,
			Quorum:     3,
			Rounds:     1,
			LocalSteps: 1,
			BatchSize:  4,
			LocalLR:    0.05,
			NewModel:   func() securetf.Model { return securetf.NewMNISTMLP(3) },
			ShardData: func(client int) (*securetf.Tensor, *securetf.Tensor, error) {
				return mlpShard(client, 1, 4)
			},
		}
	}
	cases := []struct {
		name string
		mut  func(*securetf.FederatedConfig)
		want string
	}{
		{"no model", func(c *securetf.FederatedConfig) { c.NewModel = nil }, "newmodel"},
		{"no shards", func(c *securetf.FederatedConfig) { c.ShardData = nil }, "sharddata"},
		{"quorum over cohort", func(c *securetf.FederatedConfig) { c.Quorum = 4 }, "quorum"},
		{"bad fraction", func(c *securetf.FederatedConfig) { c.SampleFraction = 1.5 }, "fraction"},
		{"bad stragglers", func(c *securetf.FederatedConfig) { c.StragglerFraction = -0.1 }, "straggler"},
		{"bad codec", func(c *securetf.FederatedConfig) { c.Compression = securetf.TopKFedCompression(0) }, "fraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := securetf.TrainFederated(cfg)
			if err == nil {
				t.Fatal("config accepted")
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
