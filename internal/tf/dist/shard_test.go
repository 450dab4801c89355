package dist

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/tf"
)

// TestShardForPlacement checks the name-hash placement rule: stable,
// in-range, and hierarchical — doubling the shard count refines the
// placement (a variable's 2-shard home contains its 4-shard home), the
// property that makes per-shard load non-increasing as clusters grow.
func TestShardForPlacement(t *testing.T) {
	names := []string{"conv1/filter", "conv1/bias", "conv2/filter", "conv2/bias", "fc1/w", "fc1/b", "fc2/w", "fc2/b"}
	for _, name := range names {
		if got := ShardFor(name, 1); got != 0 {
			t.Errorf("ShardFor(%q, 1) = %d, want 0", name, got)
		}
		for _, shards := range []int{2, 3, 4, 7} {
			s := ShardFor(name, shards)
			if s < 0 || s >= shards {
				t.Errorf("ShardFor(%q, %d) = %d out of range", name, shards, s)
			}
			if again := ShardFor(name, shards); again != s {
				t.Errorf("ShardFor(%q, %d) unstable: %d then %d", name, shards, s, again)
			}
		}
		// Range partitioning: shard at 2k must be the refinement of the
		// shard at k (same half / quarter of the hash space).
		for _, k := range []int{1, 2, 4} {
			coarse, fine := ShardFor(name, k), ShardFor(name, 2*k)
			if fine/2 != coarse {
				t.Errorf("ShardFor(%q): %d-shard home %d is not refined by %d-shard home %d", name, k, coarse, 2*k, fine)
			}
		}
	}
}

// TestShardPlacementProperty is the property-style companion of
// TestShardForPlacement: over randomly generated variable-name sets it
// checks (a) totality — every name maps to exactly one in-range shard
// at every shard count, with Router and ShardFor agreeing — and (b) the
// hierarchical refinement invariant — doubling the shard count moves a
// variable from shard i only to shard 2i or 2i+1, never anywhere else.
// (b) is what makes shard-count growth a refinement instead of a
// reshuffle: it follows from range partitioning, because
// ⌊h·2n/2³²⌋ ∈ {2⌊h·n/2³²⌋, 2⌊h·n/2³²⌋+1} for every 32-bit h.
func TestShardPlacementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	alphabet := []string{"conv", "fc", "bias", "w", "b", "gamma", "beta", "ema", "opt", "head"}
	randomName := func() string {
		depth := 1 + rng.Intn(3)
		parts := make([]string, depth)
		for i := range parts {
			parts[i] = fmt.Sprintf("%s%d", alphabet[rng.Intn(len(alphabet))], rng.Intn(100))
		}
		return strings.Join(parts, "/")
	}
	for trial := 0; trial < 50; trial++ {
		set := make(map[string]bool)
		for len(set) < 1+rng.Intn(40) {
			set[randomName()] = true
		}
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		for _, shards := range []int{1, 2, 3, 4, 8, 16} {
			r, err := NewRouter(names, shards)
			if err != nil {
				t.Fatalf("trial %d: NewRouter(%d): %v", trial, shards, err)
			}
			manifestHomes := make(map[string]int)
			for s := 0; s < shards; s++ {
				for _, name := range r.Names(s) {
					if prev, dup := manifestHomes[name]; dup {
						t.Fatalf("trial %d shards=%d: %q in manifests of shards %d and %d", trial, shards, name, prev, s)
					}
					manifestHomes[name] = s
				}
			}
			for _, name := range names {
				s := ShardFor(name, shards)
				if s < 0 || s >= shards {
					t.Fatalf("trial %d: ShardFor(%q, %d) = %d out of range", trial, name, shards, s)
				}
				if home, ok := manifestHomes[name]; !ok || home != s || r.Owner(name) != s {
					t.Fatalf("trial %d shards=%d: %q placed at %d but manifest/Owner say %d/%d",
						trial, shards, name, s, home, r.Owner(name))
				}
			}
		}
		// Refinement: each doubling sends shard i's variables to exactly
		// {2i, 2i+1}.
		for _, n := range []int{1, 2, 3, 4, 8} {
			for _, name := range names {
				coarse, fine := ShardFor(name, n), ShardFor(name, 2*n)
				if fine != 2*coarse && fine != 2*coarse+1 {
					t.Fatalf("trial %d: %q moves from shard %d of %d to shard %d of %d — not a refinement",
						trial, name, coarse, n, fine, 2*n)
				}
			}
		}
	}
}

// TestRouterValidation checks the placement invariant: every variable
// maps to exactly one shard, and malformed name sets are rejected.
func TestRouterValidation(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	r, err := NewRouter(names, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for s := 0; s < r.Shards(); s++ {
		for _, name := range r.Names(s) {
			seen[name]++
			if r.Owner(name) != s {
				t.Errorf("Owner(%q) = %d but listed in shard %d's manifest", name, r.Owner(name), s)
			}
		}
	}
	for _, name := range names {
		if seen[name] != 1 {
			t.Errorf("variable %q appears in %d shard manifests, want exactly 1", name, seen[name])
		}
	}
	if r.Owner("nope") != -1 {
		t.Error("Owner of unplaced name did not report -1")
	}

	if _, err := NewRouter(names, 0); err == nil {
		t.Error("NewRouter accepted 0 shards")
	}
	if _, err := NewRouter([]string{"a", "a"}, 2); err == nil {
		t.Error("NewRouter accepted a duplicate variable name")
	}
	if _, err := NewRouter([]string{""}, 2); err == nil {
		t.Error("NewRouter accepted an empty variable name")
	}
	if _, err := r.Partition(map[string]*tf.Tensor{"orphan": tf.Fill(tf.Shape{1}, 0)}); err == nil {
		t.Error("Partition accepted a variable with no placement")
	}
}

// newShardedCluster starts an n-shard parameter-server cluster for the
// tiny test model and returns the shard addresses in shard order.
func newShardedCluster(t *testing.T, shards, workers int, opts func(*PSConfig)) ([]*ParameterServer, []string) {
	t.Helper()
	pss := make([]*ParameterServer, shards)
	addrs := make([]string, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := PSConfig{
			Listener: ln,
			Vars:     InitialVars(tinyModel(7).Graph),
			Workers:  workers,
			LR:       0.5,
			Shard:    s,
			Shards:   shards,
		}
		if opts != nil {
			opts(&cfg)
		}
		ps, err := NewParameterServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ps.Close() })
		pss[s] = ps
		addrs[s] = ln.Addr().String()
	}
	return pss, addrs
}

func newShardedWorker(t *testing.T, id int, addrs []string) *Worker {
	t.Helper()
	xs, ys := tinyShard(30, int64(100+id))
	w, err := NewWorker(WorkerConfig{
		ID:        id,
		Addrs:     addrs,
		Model:     tinyModel(7),
		XS:        xs,
		YS:        ys,
		BatchSize: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// trajectory trains `workers` workers for `steps` synchronous rounds on
// an n-shard cluster and returns each worker's per-step loss sequence.
func trajectory(t *testing.T, shards, workers, steps int) [][]float64 {
	t.Helper()
	_, addrs := newShardedCluster(t, shards, workers, nil)
	ws := make([]*Worker, workers)
	for id := range ws {
		ws[id] = newShardedWorker(t, id, addrs)
	}
	losses := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for id := range ws {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				if errs[id] = ws[id].Step(); errs[id] != nil {
					return
				}
				losses[id] = append(losses[id], ws[id].LastLoss)
			}
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	return losses
}

// TestShardCountPreservesTrajectory checks that sharding is purely a
// placement decision: the same job on 1, 2, 3 or 4 shards produces
// bit-identical per-step losses, because every variable still receives
// exactly the same averaged gradient. The tiny model's two variables
// land unevenly (some shards own nothing) at the higher counts, so this
// also covers uneven hash distributions — including empty shards, which
// must still barrier correctly for rounds to commit.
func TestShardCountPreservesTrajectory(t *testing.T) {
	const steps = 6
	base := trajectory(t, 1, 1, steps)
	if len(base[0]) != steps {
		t.Fatalf("baseline recorded %d losses, want %d", len(base[0]), steps)
	}
	if base[0][steps-1] >= base[0][0] {
		t.Fatalf("baseline did not learn: %v", base[0])
	}
	for _, shards := range []int{2, 3, 4} {
		got := trajectory(t, shards, 1, steps)
		for i := range base[0] {
			if got[0][i] != base[0][i] {
				t.Fatalf("shards=%d step %d loss %v differs from 1-shard %v", shards, i, got[0][i], base[0][i])
			}
		}
	}
	// Two workers: gradient averaging must also be placement-invariant.
	base2 := trajectory(t, 1, 2, steps)
	got2 := trajectory(t, 2, 2, steps)
	for id := range base2 {
		for i := range base2[id] {
			if got2[id][i] != base2[id][i] {
				t.Fatalf("2 workers, 2 shards: worker %d step %d loss %v differs from 1-shard %v",
					id, i, got2[id][i], base2[id][i])
			}
		}
	}
}

// TestManifestHandshakeRejectsMisconfiguration checks that a worker
// configured against the wrong cluster shape fails construction with an
// explicit error instead of hanging mid-round.
func TestManifestHandshakeRejectsMisconfiguration(t *testing.T) {
	_, addrs := newShardedCluster(t, 2, 1, nil)
	xs, ys := tinyShard(30, 100)
	base := WorkerConfig{ID: 0, Model: tinyModel(7), XS: xs, YS: ys, BatchSize: 10}

	// Wrong shard count: the worker thinks the cluster has one shard.
	cfg := base
	cfg.Addrs = addrs[:1]
	if _, err := NewWorker(cfg); err == nil {
		t.Fatal("worker with 1 configured shard connected to a 2-shard cluster")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("error does not mention the shard mismatch: %v", err)
	}

	// Mis-ordered addresses: shard ids don't match the dialed endpoints.
	cfg = base
	cfg.Addrs = []string{addrs[1], addrs[0]}
	if _, err := NewWorker(cfg); err == nil {
		t.Fatal("worker with swapped shard addresses connected")
	}

	// A model whose variables differ from the cluster's must be caught
	// by the manifest comparison at handshake, not mid-training.
	cfg = base
	cfg.Addrs = addrs
	other := tf.NewGraph()
	x := other.Placeholder("x", tf.Float32, tf.Shape{-1, 4})
	y := other.Placeholder("y", tf.Float32, tf.Shape{-1, 3})
	wv := other.Variable("different/w", tf.GlorotUniform(tf.Shape{4, 3}, 4, 3, 7))
	logits := other.MatMul(x, wv)
	loss := other.ReduceMean(other.SoftmaxCrossEntropy(logits, y))
	cfg.Model = Model{Graph: other, X: x, Y: y, Loss: loss}
	if _, err := NewWorker(cfg); err == nil {
		t.Fatal("worker with mismatched variable manifest connected")
	} else if !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("error does not mention the manifest: %v", err)
	}
}

// TestDeadShardAbortsAllWorkers checks §3.2 fault tolerance in the
// sharded cluster: when one shard dies mid-job, every worker's step
// fails promptly — its exchange with the dead shard fails — instead of
// blocking the fan-out forever.
func TestDeadShardAbortsAllWorkers(t *testing.T) {
	pss, addrs := newShardedCluster(t, 2, 2, nil)
	w0 := newShardedWorker(t, 0, addrs)
	w1 := newShardedWorker(t, 1, addrs)

	// Shard 1 dies after the workers have connected.
	pss[1].Close()

	done := make(chan error, 2)
	go func() { done <- w0.Step() }()
	go func() { done <- w1.Step() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("step succeeded against a cluster with a dead shard")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker hung on a dead shard instead of aborting")
		}
	}
}

// TestStragglerTimesOutShardedRound checks that RoundTimeout fires
// independently on every healthy shard: with one worker absent, each
// shard the present worker pushed to evicts the absent one and commits
// the round from the push it has.
func TestStragglerTimesOutShardedRound(t *testing.T) {
	pss, addrs := newShardedCluster(t, 2, 2, func(cfg *PSConfig) {
		cfg.RoundTimeout = 150 * time.Millisecond
	})
	w0 := newShardedWorker(t, 0, addrs)
	_ = newShardedWorker(t, 1, addrs) // connects, never steps

	done := make(chan error, 1)
	go func() { done <- w0.Step() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("the present worker's sharded step: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker hung past RoundTimeout")
	}
	for s, ps := range pss {
		if st := ps.Stats(); ps.Rounds() != 1 || st != (PSStats{Evictions: 1, ShrunkRounds: 1}) {
			t.Fatalf("shard %d: rounds %d, stats %+v; want one round shrunk by one eviction", s, ps.Rounds(), st)
		}
	}
}

// TestShardedPushWireShrinks checks the Figure 8 lever directly at the
// dist layer: the per-shard push wire vtime (serialization of the
// gradient frames) must shrink as the same variables fan out over more
// shards, because each shard receives only its partition of the bytes.
func TestShardedPushWireShrinks(t *testing.T) {
	perShard := func(shards int) time.Duration {
		_, addrs := newShardedCluster(t, shards, 1, nil)
		w := newShardedWorker(t, 0, addrs)
		if err := w.RunSteps(2); err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for _, d := range w.PushWire() {
			total += d
		}
		return total / time.Duration(shards)
	}
	one, two := perShard(1), perShard(2)
	if two >= one {
		t.Fatalf("per-shard push wire did not shrink: 1 shard %v, 2 shards %v", one, two)
	}
}

// TestEmptyShardStillBarriers pins the uneven-distribution edge case: a
// shard that owns no variables still participates in the round barrier,
// so rounds commit and its round counter advances with the others.
func TestEmptyShardStillBarriers(t *testing.T) {
	// Find a shard count where the tiny model (vars w, b) leaves at
	// least one shard empty.
	vars := InitialVars(tinyModel(7).Graph)
	shards := 0
	for _, n := range []int{2, 3, 4, 5} {
		occupied := make(map[int]bool)
		for name := range vars {
			occupied[ShardFor(name, n)] = true
		}
		if len(occupied) < n {
			shards = n
			break
		}
	}
	if shards == 0 {
		t.Skip("tiny model occupies every shard at all tested counts")
	}
	pss, addrs := newShardedCluster(t, shards, 1, nil)
	w := newShardedWorker(t, 0, addrs)
	if err := w.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	for s, ps := range pss {
		if got := ps.Rounds(); got != 3 {
			t.Fatalf("shard %d committed %d rounds, want 3 (empty shards must still barrier)", s, got)
		}
	}
}
