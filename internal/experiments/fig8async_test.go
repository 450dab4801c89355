package experiments

import (
	"math"
	"testing"
)

// TestFigure8AsyncShape pins the acceptance shape of the consistency
// sweep at a reduced size: with a straggler in the cluster, every async
// staleness bound clears the synchronous baseline's virtual-time
// throughput, and the bounded points (K ≤ 8) converge within 10% of the
// synchronous final loss. The async rows run on a deterministic
// discrete-event schedule, so the whole sweep is reproducible
// bit-for-bit — re-running a row must change nothing.
// asyncSpeedupFloor is the least unbounded async may beat the
// synchronous barrier's virtual-time throughput by with one straggler
// among four workers: 3.01 today at this size, less 20 %.
const asyncSpeedupFloor = 2.41

func TestFigure8AsyncShape(t *testing.T) {
	if testing.Short() {
		t.Skip("reduced paper workload; skipped under -short")
	}
	cfg := Config{Steps: 3, BatchSize: 20}
	rows, err := Figure8Async(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0].Policy != "sync" {
		t.Fatalf("unexpected sweep shape: %+v", rows)
	}
	sync := rows[0]
	if sync.Retries != 0 {
		t.Fatalf("synchronous run reported %d staleness retries", sync.Retries)
	}
	for _, r := range rows[1:] {
		if r.Steps != sync.Steps {
			t.Fatalf("%s trained %d steps, sync trained %d — throughput not comparable", r.Policy, r.Steps, sync.Steps)
		}
		if r.Throughput <= sync.Throughput {
			t.Errorf("%s throughput %.3f steps/s does not beat sync %.3f — the straggler still gates the cluster",
				r.Policy, r.Throughput, sync.Throughput)
		}
		if r.K >= 0 && r.K <= 8 {
			band(t, r.Policy+"/sync final loss", r.FinalLoss/sync.FinalLoss, 0, 1.1, "within 10 %")
		}
	}

	kinf := rows[len(rows)-1]
	if kinf.Policy != "async K=inf" {
		t.Fatalf("last row is %q, want the unbounded one", kinf.Policy)
	}
	band(t, "async K=inf/sync throughput", kinf.Throughput/sync.Throughput, asyncSpeedupFloor, math.Inf(1), "async beats the straggler-gated barrier")

	// Determinism: the discrete-event schedule makes the async rows
	// exact (the concurrent sync row's virtual clock can wobble a few
	// microseconds with goroutine interleaving, so only its loss is
	// pinned).
	again, err := Figure8Async(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].FinalLoss != sync.FinalLoss {
		t.Fatalf("sync loss not reproducible: %v vs %v", sync.FinalLoss, again[0].FinalLoss)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Latency != again[i].Latency || rows[i].FinalLoss != again[i].FinalLoss || rows[i].Retries != again[i].Retries {
			t.Fatalf("%s not reproducible: %+v vs %+v", rows[i].Policy, rows[i], again[i])
		}
	}
}
