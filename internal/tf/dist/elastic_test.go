package dist

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
)

// elasticTimeout is the round timeout used by the elasticity tests:
// long enough that survivors on a local TCP loop always make the
// barrier, short enough that kill rounds resolve quickly.
const elasticTimeout = 100 * time.Millisecond

// runElasticScenario runs `rounds` synchronous rounds of `workers`
// workers against a `shards`-shard elastic cluster, killing the workers
// in killAt[r] just before round r begins. It returns each worker's
// loss trajectory (truncated at its death), the merged final variables,
// and the per-shard elasticity stats. Every wait is hang-guarded.
func runElasticScenario(t *testing.T, shards, workers, rounds int, killAt map[int][]int) ([][]float64, map[string]*tf.Tensor, []PSStats) {
	t.Helper()
	pss, addrs := newShardedCluster(t, shards, workers, func(cfg *PSConfig) {
		cfg.Elastic = true
		cfg.RoundTimeout = elasticTimeout
	})
	ws := make([]*Worker, workers)
	alive := make([]bool, workers)
	for id := range ws {
		ws[id] = newShardedWorker(t, id, addrs)
		alive[id] = true
	}

	losses := make([][]float64, workers)
	for r := 0; r < rounds; r++ {
		for _, w := range killAt[r] {
			if !alive[w] {
				t.Fatalf("scenario kills worker %d twice", w)
			}
			ws[w].Close()
			alive[w] = false
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for id := range ws {
			if !alive[id] {
				continue
			}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if errs[id] = ws[id].Step(); errs[id] == nil {
					losses[id] = append(losses[id], ws[id].LastLoss)
				}
			}(id)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d wave hung", r)
		}
		for id, err := range errs {
			if err != nil {
				t.Fatalf("round %d worker %d: %v", r, id, err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for _, ps := range pss {
			for ps.Rounds() < r+1 {
				if time.Now().After(deadline) {
					t.Fatalf("shard never committed round %d", r+1)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	final := make(map[string]*tf.Tensor)
	stats := make([]PSStats, shards)
	for s, ps := range pss {
		for name, v := range ps.Vars() {
			final[name] = v
		}
		stats[s] = ps.Stats()
		if got := ps.Rounds(); got != rounds {
			t.Fatalf("shard %d committed %d rounds, want %d", s, got, rounds)
		}
	}
	return losses, final, stats
}

// TestElasticEvictionTable kills 1..3 of 4 workers at 1-, 2- and
// 4-shard cluster sizes and pins the exact eviction accounting on every
// shard: each kill is one eviction, each round with a kill shrinks the
// barrier once, nobody rejoins, and the job still commits every round.
// Each scenario runs twice and must produce bit-identical survivor
// trajectories and final variables — the reproducibility contract that
// makes chaos runs assertable.
func TestElasticEvictionTable(t *testing.T) {
	const workers, rounds = 4, 5
	cases := []struct {
		name   string
		shards int
		killAt map[int][]int
		kills  int
		shrunk int
	}{
		{"1shard-1kill", 1, map[int][]int{1: {3}}, 1, 1},
		{"1shard-3kills", 1, map[int][]int{1: {1}, 2: {2}, 3: {3}}, 3, 3},
		{"2shards-2kills", 2, map[int][]int{1: {3}, 3: {2}}, 2, 2},
		{"2shards-2kills-same-round", 2, map[int][]int{2: {1, 3}}, 2, 1},
		{"4shards-1kill", 4, map[int][]int{2: {0}}, 1, 1},
		{"4shards-3kills", 4, map[int][]int{1: {0, 1}, 3: {2}}, 3, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lossesA, finalA, stats := runElasticScenario(t, tc.shards, workers, rounds, tc.killAt)
			for s, st := range stats {
				if st.Evictions != tc.kills {
					t.Errorf("shard %d Evictions = %d, want %d", s, st.Evictions, tc.kills)
				}
				if st.ShrunkRounds != tc.shrunk {
					t.Errorf("shard %d ShrunkRounds = %d, want %d", s, st.ShrunkRounds, tc.shrunk)
				}
				if st.Rejoins != 0 {
					t.Errorf("shard %d Rejoins = %d, want 0", s, st.Rejoins)
				}
			}
			// Survivors train through every round; the killed stop at
			// their kill round.
			killedAt := make(map[int]int)
			for r, ids := range tc.killAt {
				for _, id := range ids {
					killedAt[id] = r
				}
			}
			for id, ls := range lossesA {
				want := rounds
				if r, dead := killedAt[id]; dead {
					want = r
				}
				if len(ls) != want {
					t.Errorf("worker %d recorded %d losses, want %d", id, len(ls), want)
				}
			}

			lossesB, finalB, _ := runElasticScenario(t, tc.shards, workers, rounds, tc.killAt)
			for id := range lossesA {
				if len(lossesA[id]) != len(lossesB[id]) {
					t.Fatalf("worker %d trajectory lengths differ across identical runs", id)
				}
				for i := range lossesA[id] {
					if lossesA[id][i] != lossesB[id][i] {
						t.Fatalf("worker %d loss %d differs across identical runs: %v vs %v", id, i, lossesA[id][i], lossesB[id][i])
					}
				}
			}
			for name, av := range finalA {
				if !tf.AllClose(av, finalB[name], 0) {
					t.Fatalf("final variable %q differs across identical runs", name)
				}
			}
		})
	}
}

// TestElasticStallEvictsAndRejoins drives the §3.2 straggler through a
// full evict + rejoin cycle without the worker ever dying: its held
// push bounces off the moved-on barrier, the rejoin handshake folds it
// back in, and the next round counts it again.
func TestElasticStallEvictsAndRejoins(t *testing.T) {
	ps, addr, _ := newTestPS(t, 2, func(cfg *PSConfig) {
		cfg.Elastic = true
		cfg.RoundTimeout = elasticTimeout
	})
	w0, _ := newTestWorker(t, 0, addr)
	w1, _ := newTestWorker(t, 1, addr)

	step := func(w *Worker) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- w.Step() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("step: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("step hung")
		}
	}
	both := func() {
		t.Helper()
		errs := make(chan error, 2)
		go func() { errs <- w0.Step() }()
		go func() { errs <- w1.Step() }()
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("step: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("round hung")
			}
		}
	}

	both() // round 1: the whole membership commits
	if ps.Rounds() != 1 {
		t.Fatalf("Rounds() = %d after round 1", ps.Rounds())
	}

	// Round 2: w1 computes but holds its push past the timeout.
	if err := w1.BeginStep(); err != nil {
		t.Fatal(err)
	}
	step(w0) // commits the shrunk round without w1
	deadline := time.Now().Add(10 * time.Second)
	for ps.Rounds() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("shrunk round never committed")
		}
		time.Sleep(time.Millisecond)
	}
	// The late push is dropped (not applied, not an error) and the
	// worker rejoins in the same exchange.
	if err := w1.FinishStep(); err != nil {
		t.Fatalf("stalled FinishStep: %v", err)
	}
	if got := w1.DroppedPushes(); got != 1 {
		t.Errorf("DroppedPushes = %d, want 1", got)
	}
	if got := w1.Rejoins(); got != 1 {
		t.Errorf("Rejoins = %d, want 1", got)
	}
	if st := ps.Stats(); st.Evictions != 1 || st.Rejoins != 1 || st.ShrunkRounds != 1 {
		t.Errorf("Stats = %+v, want 1 eviction, 1 rejoin, 1 shrunk round", st)
	}

	both() // round 3: the rejoined worker counts again
	if ps.Rounds() != 3 {
		t.Fatalf("Rounds() = %d after the rejoined round", ps.Rounds())
	}
	if st := ps.Stats(); st.Evictions != 1 || st.ShrunkRounds != 1 {
		t.Errorf("post-rejoin round changed eviction stats: %+v", st)
	}
}

// TestElasticTimeoutWithNoPushAborts: an elastic shard commits a
// timed-out round from at least one push. A timeout that finds none —
// the floor of one contributor — aborts instead: no eviction, no
// shrunk round, no commit.
func TestElasticTimeoutWithNoPushAborts(t *testing.T) {
	ps, _, _ := newTestPS(t, 3, func(cfg *PSConfig) {
		cfg.Elastic = true
		cfg.RoundTimeout = elasticTimeout
	})
	ps.timeout(0)
	if st := ps.Stats(); ps.Rounds() != 0 || st != (PSStats{}) {
		t.Fatalf("a round nobody pushed into: rounds %d, stats %+v; want it aborted", ps.Rounds(), st)
	}
}

// TestElasticSeatsAWorkerItNeverHeardFrom: a shard restarted from its
// checkpoint knows how many seats its barrier has, not who sat in them.
// A worker that was dead through the restart loses its seat to the next
// timeout without ever having said hello, and when it returns its hello
// must add the seat back: seated without one, it and the survivors race
// for a barrier one short, and the loser's push opens a round of its own
// that only the next timeout closes (TestDistChurnElastic, one run in
// twenty).
func TestElasticSeatsAWorkerItNeverHeardFrom(t *testing.T) {
	ps, addr, _ := newTestPS(t, 2, func(cfg *PSConfig) {
		cfg.Elastic, cfg.RoundTimeout = true, 300*time.Millisecond
	})
	meter := sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	grads := map[string]*tf.Tensor{"w": tf.Fill(tf.Shape{4, 3}, 1), "b": tf.Fill(tf.Shape{3}, 1)}
	dial := func(id uint32) *Link {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		l := NewLink(conn, nil)
		if resp, _, err := l.RoundTrip(meter, &message{Kind: msgHello, Worker: id, Shards: 1}); err != nil || !resp.OK {
			t.Fatalf("worker %d hello: %+v, %v", id, resp, err)
		}
		return l
	}
	push := func(l *Link, id uint32, round uint64) *message {
		t.Helper()
		resp, _, err := l.RoundTrip(meter, &message{Kind: msgPush, Worker: id, Round: round, Vars: grads})
		if err != nil {
			t.Fatalf("worker %d push: %v", id, err)
		}
		return resp
	}
	// Round 0: worker 0 alone; the timeout evicts the seat nobody claimed.
	first := dial(0)
	if ack := push(first, 0, 0); !ack.OK {
		t.Fatalf("the shrunk round refused its one push: %+v", ack)
	}
	if st := ps.Stats(); st.Evictions != 1 || st.ShrunkRounds != 1 {
		t.Fatalf("after the lone round: %+v", st)
	}
	// Worker 1 turns up. The barrier is two again: worker 0's push does
	// not commit round 1 by itself, both do.
	second := dial(1)
	if st := ps.Stats(); st.Rejoins != 1 {
		t.Fatalf("Rejoins = %d after the unknown worker's hello, want 1", st.Rejoins)
	}
	acked := make(chan *message, 1)
	go func() {
		resp, _, _ := first.RoundTrip(meter.On(&vtime.Clock{}), &message{Kind: msgPush, Worker: 0, Round: 1, Vars: grads})
		acked <- resp
	}()
	select {
	case ack := <-acked:
		t.Fatalf("worker 0's push was answered before worker 1's arrived: %+v (rounds %d)", ack, ps.Rounds())
	case <-time.After(20 * time.Millisecond):
	}
	if ack := push(second, 1, 1); !ack.OK {
		t.Fatalf("worker 1's push: %+v", ack)
	}
	if ack := <-acked; ack == nil || !ack.OK {
		t.Fatalf("worker 0's push: %+v", ack)
	}
	if st := ps.Stats(); ps.Rounds() != 2 || st.ShrunkRounds != 1 {
		t.Fatalf("rounds %d, stats %+v: want the second round committed by a full barrier of two", ps.Rounds(), st)
	}
}
