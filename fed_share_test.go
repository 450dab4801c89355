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
// client costs: a one-round job of 16 clients allocates at most 2 MiB a
// client more than one of 8, with the same cohort of four trained. A
// client's own set-up is a session's copy of the MNIST MLP's variables,
// its gradient tensors and two round buffers, four model sizes of
// 0.41 MB, and its links' frame buffers. When every client built its own
// model and kept a third round buffer it read ≈2.8 MiB; now ≈1.6.
func TestTrainFederatedPerClientAllocation(t *testing.T) {
	alloc := func(clients int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sharedModelJob(t, clients)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(8) // warm the process's one-time set-up
	const n = 8
	small, large := alloc(n), alloc(2*n)
	perClient := (float64(large) - float64(small)) / n
	const ceiling = 2 << 20
	if perClient > ceiling {
		t.Fatalf("a client added %.0f bytes to a one-round job, want at most %d", perClient, ceiling)
	}
	t.Logf("a client added %.0f bytes to a one-round job (%d for %d clients, %d for %d)", perClient, small, n, large, 2*n)
}

// TestFederatedQuorumCutReplay is the federated row of the replay table
// at the fed-round benchmark's shape: 128 clients, half sampled a round,
// a quorum of 51, int8 uplink, two local steps, seed 1. It runs the job
// twice and asserts that both commit every round with the same number
// of accepted uploads; the cohorts are a function of the seed and the
// round alone. The row is open: which 51 of the 64 sampled uploads make
// a quorum, and so the reveals and the final variables, differ between
// some runs. The suspected cause is that the SGX aggregator charges
// paging per read call, and the host decides how a frame is read. The
// test logs the first round whose accepted set differs, and whether the
// final variables do, under -v.
func TestFederatedQuorumCutReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("two 128-client jobs")
	}
	const rounds = 9
	type run struct {
		res      *securetf.FederatedResult
		accepted [rounds][]uint32
	}
	job := func() run {
		var r run
		var mu sync.Mutex
		res, err := securetf.TrainFederated(securetf.FederatedConfig{
			Clients: 128, SampleFraction: 0.5, Quorum: 51, Rounds: rounds,
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
		for i := range r.accepted {
			slices.Sort(r.accepted[i])
		}
		r.res = res
		return r
	}
	a, b := job(), job()
	if a.res.Rounds != rounds || b.res.Rounds != rounds || a.res.Accepted != b.res.Accepted {
		t.Fatalf("the runs committed %d and %d rounds with %d and %d accepted uploads, want %d rounds each and equal counts",
			a.res.Rounds, b.res.Rounds, a.res.Accepted, b.res.Accepted, rounds)
	}
	count := func(res *securetf.FederatedResult) string {
		return fmt.Sprintf("refusals %d reveals %d uplink %d", res.Refusals, res.Reveals, res.UplinkBytes)
	}
	if ca, cb := count(a.res), count(b.res); ca != cb {
		t.Logf("open: the runs' other counts differ:\n%s\n%s", ca, cb)
	}
	for round := range a.accepted {
		if !slices.Equal(a.accepted[round], b.accepted[round]) {
			t.Logf("open: round %d accepted different uploads:\n%v\n%v", round, a.accepted[round], b.accepted[round])
			break
		}
	}
	for _, name := range slices.Sorted(maps.Keys(a.res.Vars)) {
		if !slices.EqualFunc(a.res.Vars[name].Floats(), b.res.Vars[name].Floats(), func(x, y float32) bool {
			return math.Float32bits(x) == math.Float32bits(y)
		}) {
			t.Logf("open: the final %q differs between the runs", name)
			return
		}
	}
	t.Logf("both runs accepted the same uploads in every round and ended on the same variables")
}
