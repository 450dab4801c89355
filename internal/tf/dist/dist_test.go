package dist

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
)

// tinyModel builds a deterministic linear softmax classifier
// ([n,4] → [n,3]) small enough for fast protocol tests.
func tinyModel(seed int64) Model {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 4})
	y := g.Placeholder("y", tf.Float32, tf.Shape{-1, 3})
	w := g.Variable("w", tf.GlorotUniform(tf.Shape{4, 3}, 4, 3, seed))
	b := g.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{3}))
	logits := g.BiasAdd(g.MatMul(x, w), b)
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, y))
	return Model{Graph: g, X: x, Y: y, Loss: loss, Logits: logits}
}

// tinyShard builds a learnable shard: class = argmax of the first three
// input features.
func tinyShard(n int, seed int64) (*tf.Tensor, *tf.Tensor) {
	xs := tf.RandNormal(tf.Shape{n, 4}, 0.5, seed)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		labels[i] = cls
		xs.Floats()[i*4+cls] += 2
	}
	return xs, tf.OneHot(labels, 3)
}

func newTestPS(t *testing.T, workers int, opts func(*PSConfig)) (*ParameterServer, string, *vtime.Clock) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := &vtime.Clock{}
	cfg := PSConfig{
		Listener: ln,
		Vars:     InitialVars(tinyModel(7).Graph),
		Workers:  workers,
		LR:       0.5,
		Meter:    sgx.NewMeter(clock, sgx.DefaultParams()),
	}
	if opts != nil {
		opts(&cfg)
	}
	ps, err := NewParameterServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps, ln.Addr().String(), clock
}

func newTestWorker(t *testing.T, id int, addr string) (*Worker, *vtime.Clock) {
	t.Helper()
	clock := &vtime.Clock{}
	meter := sgx.NewMeter(clock, sgx.DefaultParams())
	xs, ys := tinyShard(30, int64(100+id))
	w, err := NewWorker(WorkerConfig{
		ID:        id,
		Addrs:     []string{addr},
		Model:     tinyModel(7),
		XS:        xs,
		YS:        ys,
		BatchSize: 10,
		Device:    device.NewCPU("w", meter, 1, 1.0),
		Meter:     meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, clock
}

// TestInitialVarsDeterministic checks that replicas built from the same
// seed produce identical initial variables — the invariant that lets
// the PS be seeded from any replica.
func TestInitialVarsDeterministic(t *testing.T) {
	a := InitialVars(tinyModel(3).Graph)
	b := InitialVars(tinyModel(3).Graph)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("expected 2 variables, got %d and %d", len(a), len(b))
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok {
			t.Fatalf("variable %q missing from second replica", name)
		}
		if !tf.AllClose(av, bv, 0) {
			t.Fatalf("variable %q differs across replicas built from the same seed", name)
		}
	}
	c := InitialVars(tinyModel(4).Graph)
	if tf.AllClose(a["w"], c["w"], 0) {
		t.Fatal("different seeds produced identical weights")
	}
	// The extracted state is a copy: mutating it must not corrupt the
	// graph's declared initials.
	a["w"].Floats()[0] += 100
	if tf.AllClose(a["w"], InitialVars(tinyModel(3).Graph)["w"], 0) {
		t.Fatal("InitialVars returned a live reference to graph state")
	}
}

// TestRoundAccounting trains two workers for several synchronous rounds
// and checks the PS's round counter, variable movement, loss sanity and
// the per-phase breakdown under the virtual clock.
func TestRoundAccounting(t *testing.T) {
	const workers, steps = 2, 4
	var applied int64
	ps, addr, psClock := newTestPS(t, workers, func(cfg *PSConfig) {
		cfg.ApplyMeter = func(flops, bytes int64) { applied += flops }
	})
	before := ps.Vars()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	ws := make([]*Worker, workers)
	for id := 0; id < workers; id++ {
		ws[id], _ = newTestWorker(t, id, addr)
	}
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = ws[id].RunSteps(steps)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}

	if got := ps.Rounds(); got != steps {
		t.Fatalf("Rounds() = %d, want %d", got, steps)
	}
	if applied == 0 {
		t.Fatal("ApplyMeter was never charged")
	}
	after := ps.Vars()
	if tf.AllClose(before["w"], after["w"], 1e-9) {
		t.Fatal("variables did not move after committed rounds")
	}
	if psClock.Now() == 0 {
		t.Fatal("PS clock did not advance")
	}
	for id, w := range ws {
		if w.LastLoss <= 0 || w.LastLoss > 10 {
			t.Fatalf("worker %d loss %v out of range", id, w.LastLoss)
		}
		b := w.LastBreakdown
		if b.Pull <= 0 || b.Compute <= 0 || b.Push <= 0 {
			t.Fatalf("worker %d breakdown has a zero phase: %+v", id, b)
		}
	}
}

// TestStragglerBlocks checks the barrier: with a two-worker round, the
// first pusher stays blocked until the straggler contributes, then both
// release.
func TestStragglerBlocks(t *testing.T) {
	ps, addr, _ := newTestPS(t, 2, nil)
	fast, _ := newTestWorker(t, 0, addr)
	slow, _ := newTestWorker(t, 1, addr)

	done := make(chan error, 1)
	go func() { done <- fast.Step() }()

	select {
	case err := <-done:
		t.Fatalf("fast worker released before the straggler pushed (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
		// Still blocked on the barrier, as required.
	}
	if ps.Rounds() != 0 {
		t.Fatalf("round committed with one of two pushes: Rounds() = %d", ps.Rounds())
	}

	if err := slow.Step(); err != nil {
		t.Fatalf("straggler step: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fast worker step: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fast worker still blocked after the barrier released")
	}
	if ps.Rounds() != 1 {
		t.Fatalf("Rounds() = %d after one complete round", ps.Rounds())
	}
}

// TestRoundTimeoutEvictsAnIdleWorker checks §3.2 elasticity: when a
// worker of the round never pushes, RoundTimeout evicts it and the
// round commits from the push it has, so the blocked worker's step
// succeeds instead of hanging, and the survivor's wait is charged to the
// shard's clock.
func TestRoundTimeoutEvictsAnIdleWorker(t *testing.T) {
	const timeout = 150 * time.Millisecond
	ps, addr, clock := newTestPS(t, 2, func(cfg *PSConfig) {
		cfg.RoundTimeout = timeout
	})
	before := ps.Vars()
	w, _ := newTestWorker(t, 0, addr)
	_, _ = newTestWorker(t, 1, addr) // says hello, never steps

	done := make(chan error, 1)
	go func() { done <- w.Step() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("the survivor's step: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker hung past RoundTimeout")
	}
	if st := ps.Stats(); ps.Rounds() != 1 || st != (PSStats{Evictions: 1, ShrunkRounds: 1}) {
		t.Fatalf("rounds %d, stats %+v: want one round shrunk by one eviction", ps.Rounds(), st)
	}
	if tf.AllClose(before["w"], ps.Vars()["w"], 0) {
		t.Fatal("the shrunk round left the variables as they were")
	}
	if now := clock.Now(); now < timeout {
		t.Fatalf("shard clock at %v, want the %v wait charged", now, timeout)
	}
}

// TestLateStragglerRejected checks that a push for a round the barrier
// committed without it is answered Evicted — dropped, and its worker
// rejoined — instead of silently seeding the next round with a gradient
// computed against stale parameters.
func TestLateStragglerRejected(t *testing.T) {
	ps, addr, _ := newTestPS(t, 2, func(cfg *PSConfig) {
		cfg.RoundTimeout = 100 * time.Millisecond
	})
	w0, _ := newTestWorker(t, 0, addr)
	w1, _ := newTestWorker(t, 1, addr)

	// w1 pulls (learning the current round generation) but stalls
	// before pushing; w0 runs a full step, and the timeout commits it.
	if err := w1.pull(); err != nil {
		t.Fatal(err)
	}
	if err := w0.Step(); err != nil {
		t.Fatalf("w0 step with an absent straggler: %v", err)
	}
	committed := ps.Vars()

	// w1 finally computes and pushes its stale-round gradient: it must
	// be dropped, not applied and not held as the seed of a fresh round.
	_, grads, err := w1.compute()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.pushGrads(grads); err != nil {
		t.Fatalf("stale push: %v, want it answered Evicted", err)
	}
	if got := w1.DroppedPushes(); got != 1 {
		t.Fatalf("DroppedPushes = %d, want 1", got)
	}
	if ps.Rounds() != 1 {
		t.Fatalf("Rounds() = %d after one committed round and a dropped push", ps.Rounds())
	}
	for name, v := range ps.Vars() {
		if !tf.AllClose(committed[name], v, 0) {
			t.Fatalf("the dropped push moved variable %q", name)
		}
	}
}

// TestSyncShardRefusesASecondPushFromOneWorker: a seat at the barrier
// takes one push a round. Two connections say hello as worker 0 to a
// two-worker shard without a round timeout and step once each; the
// second push is refused, so one worker cannot fill a barrier of two.
func TestSyncShardRefusesASecondPushFromOneWorker(t *testing.T) {
	ps, addr, _ := newTestPS(t, 2, nil)
	a, _ := newTestWorker(t, 0, addr)
	b, _ := newTestWorker(t, 0, addr)
	done := make(chan error, 2)
	go func() { done <- a.Step() }()
	go func() { done <- b.Step() }()
	answer := func() error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("a step hung")
			return nil
		}
	}
	if err := answer(); err == nil || !strings.Contains(err.Error(), "pushed twice") {
		t.Fatalf("first answer: %v, want the second push refused", err)
	}
	if n := ps.Rounds(); n != 0 {
		t.Fatalf("Rounds() = %d: one worker filled a barrier of two", n)
	}
	ps.Close()
	if err := answer(); err == nil {
		t.Fatal("the first push committed after the shard closed")
	}
}

// rawLink dials the shard at addr and, unless hello is nil, says hello
// on the connection as worker *hello of a one-shard cluster.
func rawLink(t *testing.T, addr string, hello *uint32) *Link {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	l := NewLink(conn, nil)
	if hello != nil {
		meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
		if resp, _, err := l.RoundTrip(meter, &message{Kind: msgHello, Worker: *hello, Shards: 1}); err != nil || !resp.OK {
			t.Fatalf("worker %d hello: %+v, %v", *hello, resp, err)
		}
	}
	return l
}

// rawPush pushes a gradient of ones as worker id on l and returns the
// shard's answer.
func rawPush(l *Link, id uint32) (*message, error) {
	grads := map[string]*tf.Tensor{"w": tf.Fill(tf.Shape{4, 3}, 1), "b": tf.Fill(tf.Shape{3}, 1)}
	resp, _, err := l.RoundTrip(sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams()), &message{Kind: msgPush, Worker: id, Vars: grads})
	return resp, err
}

// refusedPlainly fails t unless a push's answer refuses it with a plain
// error: not applied, and not one of the retryable refusals.
func refusedPlainly(t *testing.T, what string, resp *message, err error) {
	t.Helper()
	if err != nil || resp.OK || resp.Evicted || resp.Stale || !strings.Contains(resp.Err, "said hello") {
		t.Fatalf("%s was answered %+v, %v; want it refused", what, resp, err)
	}
}

// TestShardRefusesAPushBeforeHello: a connection speaks only for the
// worker its hello named, so a push on one that never said hello is
// refused and commits no round, not even a one-worker shard's.
func TestShardRefusesAPushBeforeHello(t *testing.T) {
	ps, addr, _ := newTestPS(t, 1, nil)
	resp, err := rawPush(rawLink(t, addr, nil), 0)
	refusedPlainly(t, "a push before a hello", resp, err)
	if n := ps.Rounds(); n != 0 {
		t.Fatalf("Rounds() = %d after a push from a connection that never said hello", n)
	}
}

// TestShardRefusesAPushInAnotherWorkersName: one peer with two
// connections, both saying hello as worker 0, cannot fill a two-worker
// barrier by pushing on the second in worker 1's name, nor by saying
// hello again there as worker 1.
func TestShardRefusesAPushInAnotherWorkersName(t *testing.T) {
	ps, addr, _ := newTestPS(t, 2, nil)
	zero := uint32(0)
	first, second := rawLink(t, addr, &zero), rawLink(t, addr, &zero)
	acked := make(chan *message, 1)
	go func() { resp, _ := rawPush(first, 0); acked <- resp }()
	resp, err := rawPush(second, 1)
	refusedPlainly(t, "a push in another worker's name", resp, err)
	meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	if resp, _, err := second.RoundTrip(meter, &message{Kind: msgHello, Worker: 1, Shards: 1}); err != nil || resp.OK {
		t.Fatalf("a second hello, as worker 1, on worker 0's connection: %+v, %v; want it refused", resp, err)
	}
	if n := ps.Rounds(); n != 0 {
		t.Fatalf("Rounds() = %d: one peer filled a barrier of two", n)
	}
	ps.Close()
	select {
	case ack := <-acked:
		if ack != nil && ack.OK {
			t.Fatal("worker 0's push committed after the shard closed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker 0's push hung after the shard closed")
	}
}

// TestCorruptFrameRejected checks that a frame with an absurd variable
// count is rejected during decode instead of driving a huge allocation.
func TestCorruptFrameRejected(t *testing.T) {
	m := &message{Kind: msgPush, Vars: map[string]*tf.Tensor{"w": tf.Fill(tf.Shape{2}, 1)}}
	payload := m.encode(nil)
	// The Vars count sits right after kind(1) + stamp(8) + worker(4) +
	// round(8) + step(8) + shard(4) + shards(4) + policy(1) +
	// staleness(8) + ok(1) + stale(1) + err string(4+0) +
	// names count(4).
	off := 1 + 8 + 4 + 8 + 8 + 4 + 4 + 1 + 8 + 1 + 1 + 4 + 4
	payload[off], payload[off+1], payload[off+2], payload[off+3] = 0xff, 0xff, 0xff, 0xff
	if _, err := decode(payload); err == nil {
		t.Fatal("corrupt variable count accepted")
	}
}

// TestPushValidation checks that a malformed gradient push is rejected
// with an error instead of poisoning the round.
func TestPushValidation(t *testing.T) {
	_, addr, _ := newTestPS(t, 1, nil)
	params := sgx.DefaultParams()
	clock := &vtime.Clock{}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bogus := map[string]*tf.Tensor{"no-such-var": tf.Fill(tf.Shape{2}, 1)}
	if _, err := Send(conn, clock, params, &message{Kind: msgPush, Vars: bogus}); err != nil {
		t.Fatal(err)
	}
	resp, err := Receive(conn, clock, params)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Err == "" {
		t.Fatalf("push of unknown variable was accepted: %+v", resp)
	}
}

// TestCloseReleasesBlockedWorkers checks that Close does not strand a
// worker mid-barrier.
func TestCloseReleasesBlockedWorkers(t *testing.T) {
	ps, addr, _ := newTestPS(t, 2, nil)
	w, _ := newTestWorker(t, 0, addr)
	done := make(chan error, 1)
	go func() { done <- w.Step() }()
	time.Sleep(50 * time.Millisecond)
	ps.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("step succeeded against a closed parameter server")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker still blocked after Close")
	}
}

// TestWorkerConfigValidation spot-checks the constructor guards.
func TestWorkerConfigValidation(t *testing.T) {
	xs, ys := tinyShard(10, 1)
	bad := []WorkerConfig{
		{Addrs: []string{"x"}, XS: xs, YS: ys, BatchSize: 5},                                          // no model
		{Addrs: []string{"x"}, Model: tinyModel(1), BatchSize: 5},                                     // no shard
		{Addrs: []string{"x"}, Model: tinyModel(1), XS: xs, YS: ys},                                   // no batch size
		{Model: tinyModel(1), XS: xs, YS: ys, BatchSize: 5},                                           // no addr
		{Addrs: []string{"x"}, Model: tinyModel(1), XS: xs, YS: tf.OneHot([]int{0}, 3), BatchSize: 5}, // shard mismatch
	}
	for i, cfg := range bad {
		if _, err := NewWorker(cfg); err == nil {
			t.Errorf("case %d: invalid WorkerConfig accepted", i)
		}
	}
	if _, err := NewParameterServer(PSConfig{}); err == nil {
		t.Error("PSConfig without listener accepted")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := NewParameterServer(PSConfig{Listener: ln, Vars: map[string]*tf.Tensor{}}); err == nil {
		t.Error("PSConfig without variables accepted")
	}
	if _, err := NewParameterServer(PSConfig{Listener: ln, Vars: InitialVars(tinyModel(1).Graph), Workers: 0}); err == nil {
		t.Error("PSConfig with zero workers accepted")
	}
	if _, err := NewParameterServer(PSConfig{Listener: ln, Vars: InitialVars(tinyModel(1).Graph), Workers: 1,
		Consistency: Async(2), RoundTimeout: time.Second}); err == nil {
		t.Error("asynchronous PSConfig with a round timeout accepted")
	}
}

// TestLossDecreases trains a single worker for enough rounds to confirm
// the distributed path genuinely learns.
func TestLossDecreases(t *testing.T) {
	_, addr, _ := newTestPS(t, 1, nil)
	w, _ := newTestWorker(t, 0, addr)
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
