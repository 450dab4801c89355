package federated

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
)

// tinyModel builds a deterministic linear softmax classifier
// ([n,4] → [n,3]) small enough for fast round tests.
func tinyModel(seed int64) dist.Model {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 4})
	y := g.Placeholder("y", tf.Float32, tf.Shape{-1, 3})
	w := g.Variable("w", tf.GlorotUniform(tf.Shape{4, 3}, 4, 3, seed))
	b := g.Variable("b", tf.NewTensor(tf.Float32, tf.Shape{3}))
	logits := g.BiasAdd(g.MatMul(x, w), b)
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, y))
	return dist.Model{Graph: g, X: x, Y: y, Loss: loss, Logits: logits}
}

// planOf builds m's training step.
func planOf(t testing.TB, m dist.Model) *dist.Plan {
	t.Helper()
	p, err := dist.NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tinyShard builds a learnable client shard: class = argmax of the
// first three input features.
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

type jobSpec struct {
	population int
	sampleFrac float64
	quorum     int
	rounds     int
	codec      dist.Compression
	unmasked   bool
	seed       int64
	turnstile  bool
	// model and shard build every replica and client shard; nil means
	// tinyModel and tinyShard.
	model   func(seed int64) dist.Model
	shard   func(n int, seed int64) (*tf.Tensor, *tf.Tensor)
	maxIdle int
	// ownPlans gives every client a plan of its own, whose one session
	// is opened with tf.WithSeed(ID+1), instead of one plan for all.
	ownPlans bool
	delay    func(id int, round uint64) time.Duration
	drop     func(id int, round uint64) bool
	tap      func(round uint64, client uint32, name string, payload []byte)
}

var testSecret = []byte("consortium masking secret")

// runJob runs one complete federated job in-process and returns the
// final globals, the coordinator stats, the per-client stats and the
// final virtual clocks: every client's in id order, then the
// coordinator's.
func runJob(t testing.TB, spec jobSpec) (map[string]*tf.Tensor, Stats, []ClientStats, []time.Duration) {
	t.Helper()
	model, shard := tinyModel, tinyShard
	if spec.model != nil {
		model, shard = spec.model, spec.shard
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var coordClock vtime.Clock
	coord, err := NewCoordinator(CoordinatorConfig{
		Listener:       ln,
		Vars:           dist.InitialVars(model(7).Graph),
		Clients:        spec.population,
		SampleFraction: spec.sampleFrac,
		Quorum:         spec.quorum,
		Rounds:         spec.rounds,
		Codec:          spec.codec,
		Unmasked:       spec.unmasked,
		Seed:           spec.seed,
		Meter:          sgx.NewMeter(&coordClock, sgx.DefaultParams()),
		Tap:            spec.tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var ts *Turnstile
	if spec.turnstile {
		ts = NewTurnstile()
	}
	// Every client shares one model, as TrainFederated's do.
	plan := planOf(t, model(7))
	clients := make([]*Client, spec.population)
	clocks := make([]*vtime.Clock, spec.population)
	for id := 0; id < spec.population; id++ {
		xs, ys := shard(30, int64(100+id))
		clocks[id] = &vtime.Clock{}
		cfg := ClientConfig{
			ID:           id,
			Addr:         ln.Addr().String(),
			Plan:         plan,
			XS:           xs,
			YS:           ys,
			BatchSize:    10,
			LocalSteps:   3,
			LocalLR:      0.1,
			Codec:        spec.codec,
			Population:   spec.population,
			Secret:       testSecret,
			Unmasked:     spec.unmasked,
			Meter:        sgx.NewMeter(clocks[id], sgx.DefaultParams()),
			Turnstile:    ts,
			MaxIdlePolls: spec.maxIdle,
		}
		if spec.ownPlans {
			if cfg.Plan, err = dist.NewPlan(model(7), tf.WithSeed(int64(id)+1)); err != nil {
				t.Fatal(err)
			}
		}
		if spec.delay != nil {
			cid := id
			cfg.Delay = func(round uint64) time.Duration { return spec.delay(cid, round) }
		}
		if spec.drop != nil {
			cid := id
			cfg.DropBeforePush = func(round uint64) bool { return spec.drop(cid, round) }
		}
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
		// Register the full roster before anyone runs, so the first
		// turns are granted against the complete participant set.
		if ts != nil {
			ts.Join(id, clocks[id])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, spec.population)
	for id, c := range clients {
		wg.Add(1)
		go func(id int, c *Client) {
			defer wg.Done()
			errs[id] = c.Run()
		}(id, c)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	stats := make([]ClientStats, spec.population)
	times := make([]time.Duration, 0, spec.population+1)
	for id, c := range clients {
		stats[id] = c.Stats()
		times = append(times, clocks[id].Now())
	}
	return coord.Vars(), coord.Stats(), stats, append(times, coordClock.Now())
}

func varBits(t *testing.T, vars map[string]*tf.Tensor) map[string][]uint32 {
	t.Helper()
	out := make(map[string][]uint32, len(vars))
	for name, v := range vars {
		bits := make([]uint32, len(v.Floats()))
		for i, f := range v.Floats() {
			bits[i] = math.Float32bits(f)
		}
		out[name] = bits
	}
	return out
}

func assertSameVars(t *testing.T, label string, a, b map[string]*tf.Tensor) {
	t.Helper()
	ab, bb := varBits(t, a), varBits(t, b)
	if len(ab) != len(bb) {
		t.Fatalf("%s: %d vs %d variables", label, len(ab), len(bb))
	}
	for name, av := range ab {
		bv, ok := bb[name]
		if !ok || len(av) != len(bv) {
			t.Fatalf("%s: variable %q missing or resized", label, name)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s: %s[%d] differs: %#x vs %#x", label, name, i, av[i], bv[i])
			}
		}
	}
}

// payloadKey identifies one accepted upload payload across runs.
func payloadKey(round uint64, client uint32, name string) string {
	return fmt.Sprintf("r%d/c%d/%s", round, client, name)
}

// TestFederatedSumOnlyProperty pins the secure-aggregation contract
// under every codec: each individual uploaded payload is mask-blinded
// (different from the bare quantized update the unmasked ablation
// uploads), yet the committed aggregate is bit-identical — the
// coordinator learns the sum and nothing else, at zero accuracy cost.
func TestFederatedSumOnlyProperty(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec dist.Compression
	}{
		{"none", dist.NoCompression()},
		{"int8(clip=0.25)", dist.Int8Compression()}, // the ring codec's DefaultClip
		{"topk(f=0.5)", dist.TopKCompression(0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkSumOnly(t, jobSpec{
				population: 5, sampleFrac: 1, quorum: 5, rounds: 2,
				codec: tc.codec, seed: 21, turnstile: true,
			})
		})
	}
}

// TestFederatedSumOnlyPropertySparse is the sum-only contract on a
// cohort large enough that its members pair along a sparse graph: 24
// clients at degree 10, each masking with 10 of its 23 peers.
func TestFederatedSumOnlyPropertySparse(t *testing.T) {
	const population = 24
	if d := maskDegree(population, population); d != 10 {
		t.Fatalf("a full-quorum cohort of %d pairs at degree %d, want 10", population, d)
	}
	checkSumOnly(t, jobSpec{
		population: population, sampleFrac: 1, quorum: population, rounds: 2,
		codec: dist.Int8Compression(), seed: 23, turnstile: true,
	})
}

// checkSumOnly runs spec's full-quorum job masked and unmasked and
// requires every masked payload to differ from its bare twin and the
// finals to be bit-identical.
func checkSumOnly(t *testing.T, spec jobSpec) {
	t.Helper()
	maskedPayloads := make(map[string][]byte)
	spec.tap = func(round uint64, client uint32, name string, payload []byte) {
		maskedPayloads[payloadKey(round, client, name)] = append([]byte(nil), payload...)
	}
	maskedVars, maskedStats, _, _ := runJob(t, spec)

	unmaskedPayloads := make(map[string][]byte)
	spec.unmasked = true
	spec.tap = func(round uint64, client uint32, name string, payload []byte) {
		unmaskedPayloads[payloadKey(round, client, name)] = append([]byte(nil), payload...)
	}
	unmaskedVars, unmaskedStats, _, _ := runJob(t, spec)

	if maskedStats.Rounds != spec.rounds || unmaskedStats.Rounds != spec.rounds {
		t.Fatalf("committed %d masked and %d unmasked rounds, want %d",
			maskedStats.Rounds, unmaskedStats.Rounds, spec.rounds)
	}
	// Every client's every payload must be blinded: with a full quorum
	// both runs train identically, so the unmasked payload IS the raw
	// quantized update of the masked run.
	if len(maskedPayloads) != spec.rounds*spec.population*2 ||
		len(maskedPayloads) != len(unmaskedPayloads) {
		t.Fatalf("tapped %d masked and %d unmasked payloads", len(maskedPayloads), len(unmaskedPayloads))
	}
	for key, raw := range unmaskedPayloads {
		masked, ok := maskedPayloads[key]
		if !ok {
			t.Fatalf("no masked payload for %s", key)
		}
		if string(masked) == string(raw) {
			t.Errorf("%s: masked payload equals the raw quantized update", key)
		}
	}
	// ... and the aggregate the coordinator commits is bit-identical.
	assertSameVars(t, "masked vs unmasked finals", maskedVars, unmaskedVars)
}

// TestFederatedNoneMatchesLocalTraining checks the FedAvg arithmetic
// end to end with a single client: under the exact fixed-point codec
// the committed global equals the client's locally trained variables to
// within one quantization step per coordinate.
func TestFederatedNoneMatchesLocalTraining(t *testing.T) {
	vars, stats, _, _ := runJob(t, jobSpec{
		population: 1, sampleFrac: 1, quorum: 1, rounds: 1,
		codec: dist.NoCompression(), seed: 3, turnstile: true,
	})
	if stats.Rounds != 1 {
		t.Fatalf("committed %d rounds, want 1", stats.Rounds)
	}
	// Replay the client's local training exactly: same graph seed, same
	// session seed, same shard, same step schedule.
	model := tinyModel(7)
	sess := tf.NewSession(model.Graph, tf.WithSeed(1))
	varNodes, gradNodes, err := tf.GradientNodes(model.Graph, model.Loss)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := tinyShard(30, 100)
	for s := 0; s < 3; s++ {
		lo := (s * 10) % 30
		bx, err := tf.SliceRows(xs, lo, lo+10)
		if err != nil {
			t.Fatal(err)
		}
		by, err := tf.SliceRows(ys, lo, lo+10)
		if err != nil {
			t.Fatal(err)
		}
		fetches := append([]*tf.Node{model.Loss}, gradNodes...)
		out, err := sess.Run(tf.Feeds{model.X: bx, model.Y: by}, fetches, tf.Training())
		if err != nil {
			t.Fatal(err)
		}
		for i, vn := range varNodes {
			v, err := sess.Variable(vn.Name())
			if err != nil {
				t.Fatal(err)
			}
			vals := append([]float32(nil), v.Floats()...)
			for j, g := range out[i+1].Floats() {
				vals[j] -= 0.1 * g
			}
			nt, err := tf.FromFloats(v.Shape(), vals)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.SetVariable(vn.Name(), nt); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, vn := range varNodes {
		want, err := sess.Variable(vn.Name())
		if err != nil {
			t.Fatal(err)
		}
		got, ok := vars[vn.Name()]
		if !ok {
			t.Fatalf("coordinator is missing variable %q", vn.Name())
		}
		for i := range want.Floats() {
			if diff := math.Abs(float64(got.Floats()[i] - want.Floats()[i])); diff > 1.0/fpScale*2 {
				t.Fatalf("%s[%d]: coordinator %v vs local training %v", vn.Name(), i, got.Floats()[i], want.Floats()[i])
			}
		}
	}
}

// TestFederatedQuorumStragglers pins the straggler-dropout contract:
// the round completes at quorum without the slowest clients, their late
// uploads are refused with the retryable flag, and every survivor
// reveals the stragglers' pair seeds so the masked sum still resolves.
func TestFederatedQuorumStragglers(t *testing.T) {
	const population, quorum, rounds = 6, 4, 3
	straggler := func(id int) bool { return id >= 4 }
	vars, stats, clientStats, _ := runJob(t, jobSpec{
		population: population, sampleFrac: 1, quorum: quorum, rounds: rounds,
		codec: dist.NoCompression(), seed: 9, turnstile: true,
		delay: func(id int, round uint64) time.Duration {
			if straggler(id) {
				return 10 * time.Second
			}
			return 0
		},
	})
	if stats.Rounds != rounds {
		t.Fatalf("committed %d rounds, want %d — the job waited for its stragglers", stats.Rounds, rounds)
	}
	if len(vars) == 0 {
		t.Fatal("coordinator returned no variables")
	}
	for id, cs := range clientStats {
		if straggler(id) {
			if cs.Applied != 0 {
				t.Fatalf("straggler %d had %d uploads accepted", id, cs.Applied)
			}
			if cs.Refusals == 0 {
				t.Fatalf("straggler %d was never refused", id)
			}
		} else if cs.Applied != rounds {
			t.Fatalf("punctual client %d applied %d rounds, want %d", id, cs.Applied, rounds)
		}
	}
	if stats.Refusals == 0 {
		t.Fatal("no refusals recorded for straggling uploads")
	}
	// Every closed round had the 2 stragglers dead, so all 4 accepted
	// uploaders revealed in every round.
	if want := quorum * rounds; stats.Reveals != want {
		t.Fatalf("recorded %d seed reveals, want %d", stats.Reveals, want)
	}
}

// churnSpec is the shared drop schedule of the determinism tests: two
// deterministic clients drop mid-round every round (after training and
// masking, before upload) and rejoin for the next round; the quorum
// equals the survivor count, so the accepted membership is forced
// regardless of upload order.
//
// Free-threaded, nothing orders a round's survivors after its droppers:
// the six can upload and close the round before a client due to drop in
// it has fetched its assignment, and then it never drops. So there the
// schedule holds each survivor at the drop point until both of the
// round's droppers have reached theirs. The turnstile needs no gate (the
// virtual clocks put every poll before any upload) and could not take
// one: the drop point is inside a turn.
func churnSpec(turnstile bool) jobSpec {
	const population = 8
	due := func(id int, round uint64) bool {
		return id == int(round%population) || id == int((round+4)%population)
	}
	spec := jobSpec{
		population: population, sampleFrac: 1, quorum: population - 2, rounds: 3,
		codec: dist.TopKCompression(0.5), seed: 17, turnstile: turnstile,
		maxIdle: 1_000_000,
		drop:    due,
	}
	if turnstile {
		return spec
	}
	var mu sync.Mutex
	gates := make(map[uint64]*sync.WaitGroup)
	spec.drop = func(id int, round uint64) bool {
		mu.Lock()
		g := gates[round]
		if g == nil {
			g = new(sync.WaitGroup)
			g.Add(2)
			gates[round] = g
		}
		mu.Unlock()
		if due(id, round) {
			g.Done()
			return true
		}
		g.Wait()
		return false
	}
	return spec
}

// TestFederatedChurnDeterministic runs the churn schedule three times —
// once under the discrete-event turnstile and twice free-threaded (the
// mode the race detector exercises) — and requires bit-identical final
// variables from all three: ring sums are order-independent and the
// drop schedule forces the quorum membership, so goroutine scheduling
// must not leak into the result.
func TestFederatedChurnDeterministic(t *testing.T) {
	ordered, orderedStats, _, _ := runJob(t, churnSpec(true))
	free1, stats1, clientStats, _ := runJob(t, churnSpec(false))
	free2, stats2, _, _ := runJob(t, churnSpec(false))
	assertSameVars(t, "turnstile vs free-threaded", ordered, free1)
	assertSameVars(t, "free-threaded repeat", free1, free2)
	for _, stats := range []Stats{orderedStats, stats1, stats2} {
		if stats.Rounds != 3 {
			t.Fatalf("committed %d rounds, want 3", stats.Rounds)
		}
		// 2 dead per round, each revealed by all 6 survivors.
		if stats.Reveals != 6*3 {
			t.Fatalf("recorded %d seed reveals, want %d", stats.Reveals, 18)
		}
	}
	var rejoins int
	for _, cs := range clientStats {
		rejoins += cs.Rejoins
	}
	if rejoins != 2*3 {
		t.Fatalf("recorded %d rejoins, want %d (2 drops per round)", rejoins, 6)
	}
}

// TestFederatedSampling checks partial participation: with a fraction
// sampled per round, only cohort members upload, and the cohort
// sequence is a pure function of the job seed.
func TestFederatedSampling(t *testing.T) {
	const population, rounds = 10, 3
	accepted := make(map[uint32]bool)
	var mu sync.Mutex
	_, stats, clientStats, _ := runJob(t, jobSpec{
		population: population, sampleFrac: 0.4, quorum: 4, rounds: rounds,
		codec: dist.NoCompression(), seed: 5, turnstile: true,
		tap: func(round uint64, client uint32, name string, payload []byte) {
			mu.Lock()
			accepted[client] = true
			mu.Unlock()
		},
	})
	if stats.Rounds != rounds {
		t.Fatalf("committed %d rounds, want %d", stats.Rounds, rounds)
	}
	if stats.Accepted != 4*rounds {
		t.Fatalf("accepted %d uploads, want %d", stats.Accepted, 4*rounds)
	}
	var applied int
	for id, cs := range clientStats {
		applied += cs.Applied
		inCohorts := 0
		for r := uint64(0); r < rounds; r++ {
			for _, cid := range roundCohort(5, r, population, 4) {
				if int(cid) == id {
					inCohorts++
				}
			}
		}
		if cs.Applied != inCohorts {
			t.Fatalf("client %d applied %d rounds but was sampled into %d", id, cs.Applied, inCohorts)
		}
		if cs.Applied == 0 && accepted[uint32(id)] {
			t.Fatalf("unsampled client %d had an upload accepted", id)
		}
	}
	if applied != 4*rounds {
		t.Fatalf("clients applied %d rounds total, coordinator accepted %d", applied, 4*rounds)
	}
}

func TestCoordinatorConfigValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	vars := dist.InitialVars(tinyModel(7).Graph)
	base := CoordinatorConfig{Listener: ln, Vars: vars, Clients: 100, SampleFraction: 0.5, Quorum: 40, Rounds: 2}
	cases := []struct {
		name string
		mod  func(*CoordinatorConfig)
	}{
		{"no listener", func(c *CoordinatorConfig) { c.Listener = nil }},
		{"no vars", func(c *CoordinatorConfig) { c.Vars = nil }},
		{"no clients", func(c *CoordinatorConfig) { c.Clients = 0 }},
		{"fraction above one", func(c *CoordinatorConfig) { c.SampleFraction = 1.5 }},
		{"negative fraction", func(c *CoordinatorConfig) { c.SampleFraction = -0.1 }},
		{"zero quorum", func(c *CoordinatorConfig) { c.Quorum = 0 }},
		{"masked quorum of one", func(c *CoordinatorConfig) { c.Quorum = 1 }},
		{"quorum above cohort", func(c *CoordinatorConfig) { c.Quorum = 51 }},
		{"int8 ring overflow", func(c *CoordinatorConfig) {
			c.Codec = dist.Int8Compression()
			c.SampleFraction = 1
			c.Quorum = maxInt8Quorum + 1
			c.Clients = 1000
		}},
		{"zero rounds", func(c *CoordinatorConfig) { c.Rounds = 0 }},
		{"bad codec", func(c *CoordinatorConfig) { c.Codec = dist.TopKCompression(2) }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if _, err := NewCoordinator(cfg); err == nil {
			t.Errorf("%s: coordinator construction succeeded, want error", tc.name)
		}
	}
}

func TestClientConfigValidation(t *testing.T) {
	xs, ys := tinyShard(10, 1)
	base := ClientConfig{
		ID: 0, Addr: "127.0.0.1:1", Plan: planOf(t, tinyModel(7)), XS: xs, YS: ys,
		BatchSize: 5, LocalSteps: 1, LocalLR: 0.1, Population: 4, Secret: testSecret,
	}
	cases := []struct {
		name string
		mod  func(*ClientConfig)
	}{
		{"no plan", func(c *ClientConfig) { c.Plan = nil }},
		{"no shard", func(c *ClientConfig) { c.XS = nil }},
		{"no addr", func(c *ClientConfig) { c.Addr = "" }},
		{"zero batch", func(c *ClientConfig) { c.BatchSize = 0 }},
		{"zero steps", func(c *ClientConfig) { c.LocalSteps = 0 }},
		{"zero lr", func(c *ClientConfig) { c.LocalLR = 0 }},
		{"id out of population", func(c *ClientConfig) { c.ID = 4 }},
		{"negative id", func(c *ClientConfig) { c.ID = -1 }},
		{"masked without secret", func(c *ClientConfig) { c.Secret = nil }},
		{"bad codec", func(c *ClientConfig) { c.Codec = dist.TopKCompression(-1) }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("%s: client construction succeeded, want error", tc.name)
		}
	}
}

// TestHandshakeRejectsMismatches pins fail-fast on configuration skew:
// a client whose population, codec or masking mode disagrees with the
// coordinator is refused at the handshake.
func TestHandshakeRejectsMismatches(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Listener: ln, Vars: dist.InitialVars(tinyModel(7).Graph),
		Clients: 4, Quorum: 4, Rounds: 1, Codec: dist.Int8Compression(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	xs, ys := tinyShard(10, 1)
	base := ClientConfig{
		ID: 0, Addr: ln.Addr().String(), Plan: planOf(t, tinyModel(7)), XS: xs, YS: ys,
		BatchSize: 5, LocalSteps: 1, LocalLR: 0.1, Population: 4,
		Secret: testSecret, Codec: dist.Int8Compression(),
	}
	cases := []struct {
		name string
		mod  func(*ClientConfig)
	}{
		{"population mismatch", func(c *ClientConfig) { c.Population = 8; c.ID = 5 }},
		{"codec mismatch", func(c *ClientConfig) { c.Codec = dist.NoCompression() }},
		{"masking mismatch", func(c *ClientConfig) { c.Unmasked = true; c.Secret = nil }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("%s: handshake succeeded, want refusal", tc.name)
		}
	}
	// The matching configuration does connect.
	c, err := NewClient(base)
	if err != nil {
		t.Fatalf("matching handshake failed: %v", err)
	}
	c.Close()
}

// TestConnectionSpeaksForTheClientItGreetedAs is the hostile peer at
// the serve loop: a connection is one client, the one its hello named.
// Protocol frames before a hello, or carrying another client's id, are
// refused on a connection that stays open, and nothing is accumulated.
func TestConnectionSpeaksForTheClientItGreetedAs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Listener: ln, Vars: dist.InitialVars(tinyModel(7).Graph),
		Clients: 3, Quorum: 3, Rounds: 1, Unmasked: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clock, params := &vtime.Clock{}, sgx.DefaultParams()
	exchange := func(m *dist.Message) *dist.Message {
		t.Helper()
		if _, err := dist.Send(conn, clock, params, m); err != nil {
			t.Fatal(err)
		}
		resp, err := dist.Receive(conn, clock, params)
		if err != nil {
			t.Fatalf("the coordinator hung up on message kind %d: %v", m.Kind, err)
		}
		return resp
	}
	hello := func(id uint32) *dist.Message {
		return exchange(&dist.Message{Kind: dist.MsgHello, Worker: id, Shards: 3, Policy: maskedPolicy(true)})
	}
	codec := coord.codec
	upload := make(map[string][]byte)
	for i, name := range coord.names {
		upload[name] = testBlob(codec, make([]uint64, len(coord.acc[i])/codec.width()))
	}
	frames := func(id uint32) []*dist.Message {
		return []*dist.Message{
			{Kind: dist.MsgFedPoll, Worker: id},
			{Kind: dist.MsgFedPush, Worker: id, Grads: upload},
			{Kind: dist.MsgFedSeeds, Worker: id},
		}
	}
	refused := func(when string, id uint32) {
		t.Helper()
		for _, m := range frames(id) {
			if resp := exchange(m); resp.Kind != dist.MsgAck || resp.OK || resp.Closed || resp.Err == "" {
				t.Errorf("%s, kind %d as client %d: answered %+v, want an error ack", when, m.Kind, id, resp)
			}
		}
		if got := coord.Stats(); got.Accepted != 0 || got.Refusals != 0 || got.Reveals != 0 {
			t.Fatalf("%s: refused frames moved the counters: %+v", when, got)
		}
	}
	refused("before any hello", 0)
	if resp := hello(7); resp.OK {
		t.Fatal("a hello from outside the population was accepted")
	}
	refused("after a refused hello", 0)
	if resp := hello(0); resp.Kind != dist.MsgManifest || !resp.OK {
		t.Fatalf("hello as client 0: %+v", resp)
	}
	refused("in another client's name", 1)
	if resp := hello(1); resp.OK {
		t.Fatal("a connection that greeted as client 0 was let greet again as client 1")
	}
	refused("after the second hello was refused", 1)
	if resp := exchange(frames(0)[0]); resp.Kind != dist.MsgFedRound || len(resp.Vars) != len(coord.names) {
		t.Fatalf("client 0's own poll: %+v", resp)
	}
	if resp := exchange(frames(0)[1]); !resp.OK {
		t.Fatalf("client 0's own upload: %+v", resp)
	}
	if got := coord.Stats().Accepted; got != 1 {
		t.Fatalf("Accepted = %d after client 0's upload, want 1", got)
	}
}

// TestMalformedUploadLeavesAccumulatorUntouched is the hostile peer at
// the push handler: the coordinator adds payloads into its packed
// accumulator straight from the received frame, so validation of the
// whole upload has to come first. An upload whose first variable is
// well-formed and whose last is malformed — in each of the ways the
// header can lie — must be refused with every accumulator byte and every
// counter as it was, and must not burn the client's slot in the round.
func TestMalformedUploadLeavesAccumulatorUntouched(t *testing.T) {
	for _, policy := range []dist.Compression{dist.NoCompression(), dist.Int8Compression(), dist.TopKCompression(0.5)} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(CoordinatorConfig{
			Listener: ln, Vars: dist.InitialVars(tinyModel(7).Graph),
			Clients: 3, Quorum: 3, Rounds: 1, Codec: policy, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		codec := coord.codec
		width := codec.width()
		// A well-formed upload of distinct non-zero words for "b" and "w".
		upload := func() map[string][]byte {
			grads := make(map[string][]byte)
			for i, name := range coord.names {
				words := make([]uint64, len(coord.acc[i])/width)
				for w := range words {
					words[w] = uint64(100*i + w + 1)
				}
				grads[name] = testBlob(codec, words)
			}
			return grads
		}
		push := func(client uint32, grads map[string][]byte) *dist.Message {
			return coord.push(&dist.Message{Kind: dist.MsgFedPush, Worker: client, Round: 0, Grads: grads})
		}
		if ack := push(0, upload()); !ack.OK {
			t.Fatalf("%v: well-formed upload refused: %s", codec, ack.Err)
		}
		before := make([][]byte, len(coord.acc))
		for i, acc := range coord.acc {
			before[i] = append([]byte(nil), acc...)
		}
		statsBefore := coord.Stats()

		last := coord.names[len(coord.names)-1]
		otherKind, otherWidth := byte(dist.CompressInt8), byte(2)
		if codec.Kind == dist.CompressInt8 {
			otherKind, otherWidth = byte(dist.CompressNone), 8
		}
		cases := []struct {
			name   string
			mangle func(blob []byte) []byte
		}{
			{"wrong kind", func(b []byte) []byte { b[0] = otherKind; return b }},
			{"wrong width", func(b []byte) []byte { b[1] = otherWidth; return b }},
			{"count one short", func(b []byte) []byte { b[2]--; return b }},
			{"count huge", func(b []byte) []byte { b[5] = 0x7f; return b }},
			{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
			{"one word long", func(b []byte) []byte { return append(b, make([]byte, width)...) }},
			{"header only", func(b []byte) []byte { return b[:updateHeader] }},
			{"empty", func(b []byte) []byte { return nil }},
		}
		for _, tc := range cases {
			grads := upload()
			grads[last] = tc.mangle(grads[last])
			ack := push(1, grads)
			if ack.OK || ack.Closed || ack.Err == "" {
				t.Errorf("%v, %s: ack %+v, want a hard refusal", codec, tc.name, ack)
			}
			for i := range before {
				if !bytes.Equal(coord.acc[i], before[i]) {
					t.Fatalf("%v, %s: refused upload changed the accumulator of %q", codec, tc.name, coord.names[i])
				}
			}
			if coord.Stats() != statsBefore {
				t.Errorf("%v, %s: refused upload moved the counters: %+v", codec, tc.name, coord.Stats())
			}
		}
		// The refusals did not consume client 1's slot.
		if ack := push(1, upload()); !ack.OK {
			t.Fatalf("%v: well-formed upload after the refusals: %s", codec, ack.Err)
		}
		for i := range before {
			if bytes.Equal(coord.acc[i], before[i]) {
				t.Fatalf("%v: accepted upload left the accumulator of %q unchanged", codec, coord.names[i])
			}
		}
	}
}

// TestMalformedRevealKeepsNothing is the hostile peer at the reveal
// handler. The coordinator only keeps a reveal's streams and subtracts
// them all when the round commits, so a reveal that is malformed in any
// way must leave no stream behind, and a well-formed one must not touch
// the accumulator before the last survivor has revealed.
func TestMalformedRevealKeepsNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Listener: ln, Vars: dist.InitialVars(tinyModel(7).Graph),
		Clients: 3, Quorum: 2, Rounds: 1, Codec: dist.Int8Compression(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	codec := coord.codec
	for id := uint32(0); id < 2; id++ {
		grads := make(map[string][]byte)
		for i, name := range coord.names {
			words := make([]uint64, len(coord.acc[i])/codec.width())
			for w := range words {
				words[w] = uint64(w + 1)
			}
			grads[name] = testBlob(codec, words)
		}
		if ack := coord.push(&dist.Message{Kind: dist.MsgFedPush, Worker: id, Grads: grads}); !ack.OK {
			t.Fatalf("client %d's upload refused: %s", id, ack.Err)
		}
	}
	before := make([][]byte, len(coord.acc))
	for i, acc := range coord.acc {
		before[i] = bytes.Clone(acc)
	}
	statsBefore := coord.Stats()
	reveal := func(id uint32, round uint64, grads map[string][]byte) *dist.Message {
		return coord.seeds(&dist.Message{Kind: dist.MsgFedSeeds, Worker: id, Round: round, Grads: grads})
	}
	seed := func(id uint32) []byte { key := roundKey(pairSeed(testSecret, id, 2), 0); return key[:] }
	cases := []struct {
		name  string
		round uint64
		grads map[string][]byte
	}{
		{"another round", 1, map[string][]byte{"2": seed(0)}},
		{"no seeds", 0, nil},
		{"one seed too many", 0, map[string][]byte{"2": seed(0), "1": seed(0)}},
		{"a live client's seed", 0, map[string][]byte{"1": seed(0)}},
		{"a short seed", 0, map[string][]byte{"2": seed(0)[1:]}},
	}
	check := func(label string) {
		t.Helper()
		for i := range before {
			if !bytes.Equal(coord.acc[i], before[i]) {
				t.Fatalf("%s: the accumulator of %q changed before the round committed", label, coord.names[i])
			}
		}
	}
	for _, tc := range cases {
		if ack := reveal(0, tc.round, tc.grads); ack.OK || ack.Err == "" {
			t.Errorf("%s: ack %+v, want a refusal", tc.name, ack)
		}
		if len(coord.unmask) != 0 || coord.Stats() != statsBefore {
			t.Fatalf("%s: a refused reveal kept %d streams, counters %+v", tc.name, len(coord.unmask), coord.Stats())
		}
		check(tc.name)
	}
	if ack := reveal(0, 0, map[string][]byte{"2": seed(0)}); !ack.OK {
		t.Fatalf("client 0's reveal refused: %s", ack.Err)
	}
	if len(coord.unmask) != 1 {
		t.Fatalf("the coordinator kept %d streams of client 0's reveal, want 1", len(coord.unmask))
	}
	check("after the first reveal")
	if ack := reveal(1, 0, map[string][]byte{"2": seed(1)}); !ack.OK {
		t.Fatalf("client 1's reveal refused: %s", ack.Err)
	}
	if got := coord.Stats(); got.Rounds != 1 || got.Reveals != 2 {
		t.Fatalf("after both reveals: %+v, want the round committed with 2 reveals", got)
	}
}
