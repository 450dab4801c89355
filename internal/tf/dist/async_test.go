package dist

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
)

// testListener opens a loopback listener for manually assembled
// clusters.
func testListener(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln, ln.Addr().String()
}

// newWorkerPolicyErr builds the standard test worker with an explicit
// consistency expectation, surfacing the construction error (for the
// handshake-mismatch tests).
func newWorkerPolicyErr(id int, addr string, policy ConsistencyPolicy) (*Worker, error) {
	meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	xs, ys := tinyShard(30, int64(100+id))
	return NewWorker(WorkerConfig{
		ID:          id,
		Addrs:       []string{addr},
		Model:       tinyModel(7),
		XS:          xs,
		YS:          ys,
		BatchSize:   10,
		Device:      device.NewCPU("w", meter, 1, 1.0),
		Meter:       meter,
		Consistency: policy,
	})
}

func newTestWorkerPolicy(t *testing.T, id int, addr string, policy ConsistencyPolicy) (*Worker, *vtime.Clock) {
	t.Helper()
	w, err := newWorkerPolicyErr(id, addr, policy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, w.cfg.Meter.Clock()
}

// asyncPS builds a test parameter server running Async(staleness).
func asyncPS(t *testing.T, workers, staleness int) (*ParameterServer, string) {
	t.Helper()
	ps, addr, _ := newTestPS(t, workers, func(cfg *PSConfig) {
		cfg.Consistency = Async(staleness)
	})
	return ps, addr
}

// asyncWorker builds a test worker expecting Async(staleness) from its
// single shard.
func asyncWorker(t *testing.T, id int, addr string, staleness int) *Worker {
	t.Helper()
	w, _ := newTestWorkerPolicy(t, id, addr, Async(staleness))
	return w
}

// TestAsyncNoBarrier checks the core async property: a push commits the
// moment it arrives, with no barrier. The server is configured for two
// workers, but a single worker's steps complete immediately — in sync
// mode the same topology deadlocks until the second worker shows up
// (TestStragglerBlocks).
func TestAsyncNoBarrier(t *testing.T) {
	ps, addr := asyncPS(t, 2, -1)
	before := ps.Vars()
	w := asyncWorker(t, 0, addr, -1)

	done := make(chan error, 1)
	go func() { done <- w.RunSteps(3) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("async steps: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("async worker blocked — a barrier leaked into the async path")
	}
	if got := ps.Rounds(); got != 3 {
		t.Fatalf("Rounds() = %d, want 3 (one commit per push)", got)
	}
	if tf.AllClose(before["w"], ps.Vars()["w"], 1e-12) {
		t.Fatal("variables did not move after applied pushes")
	}
	if steps := ps.WorkerSteps(); steps[0] != 2 {
		t.Fatalf("WorkerSteps()[0] = %d, want 2 (the last pushed local step)", steps[0])
	}
}

// TestAsyncStalenessRejectRetry is the deterministic bounded-staleness
// test: with K = 0, a worker whose pulled variable version is overtaken
// by another worker's applied push must have its own push rejected with
// the stale flag, then succeed after re-pulling and recomputing. The
// phase-split API serializes both workers in this goroutine, so the
// interleaving — and therefore the rejection — is exact, not a race.
func TestAsyncStalenessRejectRetry(t *testing.T) {
	ps, addr := asyncPS(t, 2, 0)
	w0 := asyncWorker(t, 0, addr, 0)
	w1 := asyncWorker(t, 1, addr, 0)

	// w0 stages a step against version 0...
	if err := w0.BeginStep(); err != nil {
		t.Fatal(err)
	}
	// ...then w1 runs a whole step, advancing the variables to version 1.
	if err := w1.Step(); err != nil {
		t.Fatal(err)
	}
	// w0's staged push now lags by 1 > K=0: it must be rejected and
	// retried (re-pull, recompute, re-push), not fail the step.
	if err := w0.FinishStep(); err != nil {
		t.Fatalf("FinishStep after staleness rejection: %v", err)
	}
	if got := w0.StalenessRetries(); got != 1 {
		t.Fatalf("StalenessRetries() = %d, want exactly 1", got)
	}
	if got := ps.Rounds(); got != 2 {
		t.Fatalf("Rounds() = %d, want 2 (both pushes applied)", got)
	}
}

// TestAsyncStalenessBoundEdge checks the bound is inclusive: with K = 2
// a push lagging by exactly 2 versions is applied without retry.
func TestAsyncStalenessBoundEdge(t *testing.T) {
	ps, addr := asyncPS(t, 2, 2)
	w0 := asyncWorker(t, 0, addr, 2)
	w1 := asyncWorker(t, 1, addr, 2)

	if err := w0.BeginStep(); err != nil {
		t.Fatal(err)
	}
	if err := w1.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	if err := w0.FinishStep(); err != nil {
		t.Fatal(err)
	}
	if got := w0.StalenessRetries(); got != 0 {
		t.Fatalf("push lagging by exactly K was retried %d times, want 0", got)
	}
	if got := ps.Rounds(); got != 3 {
		t.Fatalf("Rounds() = %d, want 3", got)
	}
}

// TestPolicyMismatchFailsFast checks the handshake half of the policy:
// a worker whose expectation differs from the shard's actual policy —
// in kind or in staleness bound — fails at construction with an
// explicit error instead of stranding one side on a barrier.
func TestPolicyMismatchFailsFast(t *testing.T) {
	_, addr := asyncPS(t, 1, 4)
	cases := []struct {
		name   string
		policy ConsistencyPolicy
	}{
		{"sync worker against async shard", Sync()},
		{"wrong staleness bound", Async(2)},
	}
	for _, tc := range cases {
		if _, err := newWorkerPolicyErr(0, addr, tc.policy); err == nil {
			t.Errorf("%s: worker construction succeeded", tc.name)
		} else if !strings.Contains(err.Error(), "mixed-policy") {
			t.Errorf("%s: error does not name the policy mismatch: %v", tc.name, err)
		}
	}
	// The matching expectation still connects.
	if w, err := newWorkerPolicyErr(0, addr, Async(4)); err != nil {
		t.Fatalf("matching policy rejected: %v", err)
	} else {
		w.Close()
	}
}

// TestAsyncLossDecreases confirms the async path genuinely learns.
func TestAsyncLossDecreases(t *testing.T) {
	_, addr := asyncPS(t, 1, -1)
	w := asyncWorker(t, 0, addr, -1)
	if err := w.Step(); err != nil {
		t.Fatal(err)
	}
	first := w.LastLoss
	if err := w.RunSteps(30); err != nil {
		t.Fatal(err)
	}
	if w.LastLoss >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, w.LastLoss)
	}
}

// TestBeginFinishStepGuards pins the phase-split contract: staging
// twice or finishing without staging are explicit errors.
func TestBeginFinishStepGuards(t *testing.T) {
	_, addr := asyncPS(t, 1, -1)
	w := asyncWorker(t, 0, addr, -1)
	if err := w.FinishStep(); err == nil {
		t.Fatal("FinishStep without a staged step succeeded")
	}
	if err := w.BeginStep(); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginStep(); err == nil {
		t.Fatal("second BeginStep with a step already staged succeeded")
	}
	if err := w.FinishStep(); err != nil {
		t.Fatal(err)
	}
}
