package securetf_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/sysio/sysiotest"
)

// TestSlicedHostReads: a job's virtual numbers must not follow how the
// host slices its socket reads, as sysio's package comment promises.
// Each row trains 2 workers for one round on one shard with whole reads,
// then with reads cut at points drawn from seeds 1 and 2, and compares
// Latency, Breakdown, PushBytes and every node's enclave counters: a
// count exactly, a time within replayTolerance. An asserted row fails on
// a move; an open row, and a time inside the tolerance, only log it.
func TestSlicedHostReads(t *testing.T) {
	for _, row := range []struct {
		kind securetf.RuntimeKind
		tls  bool
		open string // what the row waits on; empty when it is asserted
	}{
		{securetf.SconeHW, true, "item 0"},
		{securetf.SconeSIM, false, ""},
		// No page is counted in SIM, yet with TLS the shard's system
		// calls and the split of a step between Pull and Push still move:
		// a cause of TLS's own, beside item 0's two.
		{securetf.SconeSIM, true, "the TLS cause of item 38(a)"},
	} {
		var whole []counter
		for seed := range uint64(3) {
			t.Run(fmt.Sprintf("%v/TLS=%v/seed=%d", row.kind, row.tls, seed), func(t *testing.T) {
				if seed > 0 {
					sysiotest.Slice(t, seed)
				}
				got := slicedJob(t, row.kind, row.tls)
				if seed == 0 {
					whole = got
					return
				}
				var moved, broke []string
				for i, w := range whole {
					if d := got[i].v - w.v; d != 0 {
						moved = append(moved, fmt.Sprintf("%s %d → %d", w.name, w.v, got[i].v))
						if !w.time || max(d, -d) > int64(replayTolerance) {
							broke = append(broke, moved[len(moved)-1])
						}
					}
				}
				switch {
				case row.open == "" && len(broke) > 0:
					t.Errorf("moved %v", broke)
				case row.open != "" && len(moved) > 0:
					t.Logf("open: %s; moved %v", row.open, moved)
				case len(moved) > 0:
					t.Logf("times moved within %v: %v", replayTolerance, moved)
				}
			})
		}
	}
}

// counter is one number a sliced read must not move; time marks a
// duration in nanoseconds.
type counter struct {
	name string
	v    int64
	time bool
}

// slicedJob trains the job and lists its counters in a fixed order.
func slicedJob(t *testing.T, kind securetf.RuntimeKind, tls bool) []counter {
	const rounds, batch = 1, 50
	res, nodes, err := securetf.TrainDistributedNodes(securetf.DistTrainConfig{
		Kind: kind, TLS: tls, Workers: 2, PSShards: 1, Rounds: rounds, BatchSize: batch, LR: 0.05,
		NewModel: func() securetf.Model { return securetf.NewMNISTMLP(3) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			return mlpShard(w, rounds, batch)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := []counter{{"Latency", int64(res.Latency), true}, {"PushBytes", res.PushBytes, false}}
	fields := func(prefix string, v any) {
		rv := reflect.ValueOf(v)
		for i := range rv.NumField() {
			f := rv.Type().Field(i)
			out = append(out, counter{prefix + f.Name, rv.Field(i).Int(), f.Type == reflect.TypeFor[time.Duration]()})
		}
	}
	fields("Breakdown.", res.Breakdown)
	for i, n := range nodes {
		fields(fmt.Sprintf("node %d ", i), n)
	}
	return out
}
