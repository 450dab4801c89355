package securetf_test

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	securetf "github.com/securetf/securetf"
)

// sharedModelJob runs one round of TrainFederated over clients clients,
// sampled a cohort of four (or all of them, if fewer), and returns how often it called NewModel and
// the node count of the last graph NewModel built, read after the job.
func sharedModelJob(t *testing.T, clients int) (calls, nodes int) {
	t.Helper()
	var graph *securetf.Graph
	_, err := securetf.TrainFederated(securetf.FederatedConfig{
		Kind:           securetf.SconeSIM,
		Clients:        clients,
		SampleFraction: min(1, 4/float64(clients)),
		Quorum:         min(4, clients),
		Rounds:         1,
		LocalSteps:     1,
		BatchSize:      8,
		LocalLR:        0.05,
		Compression:    securetf.Int8FedCompression(),
		Seed:           5,
		NewModel: func() securetf.Model {
			calls++
			m := securetf.NewMNISTMLP(3)
			graph = m.Graph
			return m
		},
		ShardData: func(client int) (*securetf.Tensor, *securetf.Tensor, error) {
			return mlpShard(client, 1, 8)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return calls, len(graph.Nodes())
}

// TestTrainFederatedSharesOneModel holds TrainFederated to one model for
// the aggregator and the whole population: NewModel is called once, and
// the clients open their sessions over its graph without adding to it,
// so the graph ends the same size under 16 clients as under 2.
func TestTrainFederatedSharesOneModel(t *testing.T) {
	calls2, nodes2 := sharedModelJob(t, 2)
	calls16, nodes16 := sharedModelJob(t, 16)
	if calls2 != 1 || calls16 != 1 {
		t.Fatalf("NewModel was called %d times for 2 clients and %d for 16, want once each", calls2, calls16)
	}
	if nodes2 != nodes16 {
		t.Fatalf("the shared graph has %d nodes after 2 clients and %d after 16", nodes2, nodes16)
	}
}

// TestTrainFederatedPerClientAllocation is the ceiling on what one more
// client costs: a one-round job of 16 clients allocates at most 256 KiB
// a client more than one of 8, with the same cohort of four trained. A
// client owns its shard, its connection and its dropout stream, and from
// its first round its residuals, one model size (0.39 MiB of the MNIST
// MLP), which only the four sampled here make. Its sessions, round
// buffers and frame buffers come from lists the job shares, which grow
// with the clients that train, hold a round or exchange a frame at once,
// not with the population. How many train at once depends on the
// scheduler, and each session is ≈1.6 MiB, so each size takes the least
// of three jobs. When every client kept a session and two round buffers
// it read ≈1.6 MiB; now ≈64 KiB.
func TestTrainFederatedPerClientAllocation(t *testing.T) {
	alloc := func(clients int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			sharedModelJob(t, clients)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	alloc(8) // warm the process's one-time set-up
	const n = 8
	small, large := alloc(n), alloc(2*n)
	perClient := (float64(large) - float64(small)) / n
	const ceiling = 256 << 10
	if perClient > ceiling {
		t.Fatalf("a client added %.0f bytes to a one-round job, want at most %d", perClient, ceiling)
	}
	t.Logf("a client added %.0f bytes to a one-round job (%d for %d clients, %d for %d)", perClient, small, n, large, 2*n)
}

// TestFederatedQuorumCutReplay is the federated row of the replay table
// at the fed-round benchmark's shape: 128 clients, half sampled a round,
// a quorum of 51, int8 uplink, two local steps, seed 1, nine rounds. Each
// leg runs the job twice.
//
// The SconeSIM leg is pinned: the aggregator charges no paging, so the
// accepted set of every round, the counts and the final variables are
// bit for bit the same in both runs. It is the guard that the sessions
// and round buffers the clients share do not let the scheduler into the
// results. Latency is not compared: the per-read charge (ROADMAP item 0)
// moves it by ≈100 ns between runs at GOMAXPROCS 2 and 8.
//
// The SconeHW leg is open: it asserts that both runs commit every round
// with the same number of accepted uploads, the cohorts being a function
// of the seed and the round alone, but which 51 of the 64 sampled
// uploads make a quorum, and so the reveals and the final variables,
// differ between some runs. The suspected cause is that the SGX
// aggregator charges paging per read call, and the host decides how a
// frame is read. The leg logs the first round whose accepted set
// differs, and whether the final variables do, under -v.
func TestFederatedQuorumCutReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("four 128-client jobs")
	}
	t.Run("SconeSIM", func(t *testing.T) {
		a, b := quorumCutJob(t, securetf.SconeSIM), quorumCutJob(t, securetf.SconeSIM)
		if ca, cb := replayCounts(a.res), replayCounts(b.res); ca != cb {
			t.Fatalf("the runs' counts differ:\n%s\n%s", ca, cb)
		}
		for round := range a.accepted {
			if !slices.Equal(a.accepted[round], b.accepted[round]) {
				t.Fatalf("round %d accepted different uploads:\n%v\n%v", round, a.accepted[round], b.accepted[round])
			}
		}
		if name := firstDiffering(a.res.Vars, b.res.Vars); name != "" {
			t.Fatalf("the final %q differs between the runs", name)
		}
	})
	t.Run("SconeHW", func(t *testing.T) {
		a, b := quorumCutJob(t, securetf.SconeHW), quorumCutJob(t, securetf.SconeHW)
		if a.res.Rounds != b.res.Rounds || a.res.Accepted != b.res.Accepted {
			t.Fatalf("the runs committed %d and %d rounds with %d and %d accepted uploads, want equal counts",
				a.res.Rounds, b.res.Rounds, a.res.Accepted, b.res.Accepted)
		}
		if ca, cb := replayCounts(a.res), replayCounts(b.res); ca != cb {
			t.Logf("open: the runs' other counts differ:\n%s\n%s", ca, cb)
		}
		for round := range a.accepted {
			if !slices.Equal(a.accepted[round], b.accepted[round]) {
				t.Logf("open: round %d accepted different uploads:\n%v\n%v", round, a.accepted[round], b.accepted[round])
				break
			}
		}
		if name := firstDiffering(a.res.Vars, b.res.Vars); name != "" {
			t.Logf("open: the final %q differs between the runs", name)
			return
		}
		t.Logf("both runs accepted the same uploads in every round and ended on the same variables")
	})
}

const replayRounds = 9

// replayRun is one quorumCutJob: its result, and the clients whose
// uploads each round accepted, ascending.
type replayRun struct {
	res      *securetf.FederatedResult
	accepted [replayRounds][]uint32
}

// quorumCutJob runs TrainFederated at the fed-round benchmark's shape
// with the aggregator on kind and checks that it commits every round.
func quorumCutJob(t *testing.T, kind securetf.RuntimeKind) replayRun {
	t.Helper()
	var r replayRun
	var mu sync.Mutex
	res, err := securetf.TrainFederated(securetf.FederatedConfig{
		Kind: kind, Clients: 128, SampleFraction: 0.5, Quorum: 51, Rounds: replayRounds,
		LocalSteps: 2, BatchSize: 20, LocalLR: 0.05,
		Compression: securetf.Int8FedCompression(), Seed: 1,
		NewModel: func() securetf.Model { return securetf.NewMNISTMLP(1) },
		ShardData: func(client int) (*securetf.Tensor, *securetf.Tensor, error) {
			return mlpShard(client, 2, 20)
		},
		PayloadTap: func(round uint64, client uint32, name string, _ []byte) {
			if name != "b1" { // one tap an upload
				return
			}
			mu.Lock()
			r.accepted[round] = append(r.accepted[round], client)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != replayRounds {
		t.Fatalf("the job committed %d rounds, want %d", res.Rounds, replayRounds)
	}
	for i := range r.accepted {
		slices.Sort(r.accepted[i])
	}
	r.res = res
	return r
}

// replayCounts renders a job's counts for comparison.
func replayCounts(res *securetf.FederatedResult) string {
	return fmt.Sprintf("accepted %d refusals %d reveals %d uplink %d", res.Accepted, res.Refusals, res.Reveals, res.UplinkBytes)
}

// firstDiffering names the first variable, in name order, whose bits
// differ between a and b, "" if none does.
func firstDiffering(a, b map[string]*securetf.Tensor) string {
	for _, name := range slices.Sorted(maps.Keys(a)) {
		if !slices.EqualFunc(a[name].Floats(), b[name].Floats(), func(x, y float32) bool {
			return math.Float32bits(x) == math.Float32bits(y)
		}) {
			return name
		}
	}
	return ""
}
