package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/models"
)

// These tests assert the SHAPE of every figure against the paper: which
// system wins, rough factors, and where crossovers fall. Absolute
// latencies come from the calibrated virtual-time model and are not
// asserted here.

// band logs a ratio and its margin to the nearer edge of the band
// [lo, hi] (lo 0 or hi +Inf for a one-sided band), fails the test when
// the ratio is outside it, naming what the paper reports, and returns it.
func band(t *testing.T, name string, r, lo, hi float64, paper string) float64 {
	t.Helper()
	t.Logf("%s = %.3f, band [%g, %g]: %.1f %% inside", name, r, lo, hi, 100*min(r/lo-1, hi/r-1))
	if r < lo || r > hi {
		t.Errorf("%s = %.3f, outside [%g, %g]; paper %s", name, r, lo, hi, paper)
	}
	return r
}

func findFig4(t *testing.T, rows []Fig4Row, system string) Fig4Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system {
			return r
		}
	}
	t.Fatalf("no row for %q", system)
	return Fig4Row{}
}

func TestFigure4Shape(t *testing.T) {
	rows, err := Figure4(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ias := findFig4(t, rows, "IAS")
	cas := findFig4(t, rows, "secureTF CAS")

	// Paper: IAS total ≈ 325 ms, CAS ≈ 17 ms (≈ 19×); verification leg
	// ≈ 280 ms vs < 1 ms.
	if ias.WaitConfirmation < 250*time.Millisecond {
		t.Errorf("IAS wait-confirmation = %v, want WAN scale (~280 ms)", ias.WaitConfirmation)
	}
	if cas.WaitConfirmation > 5*time.Millisecond {
		t.Errorf("CAS wait-confirmation = %v, want local scale (<1-5 ms)", cas.WaitConfirmation)
	}
	band(t, "IAS/CAS total", float64(ias.Total())/float64(cas.Total()), 8, 40, "≈19x")
	// Initialization is flow-independent (same client-side setup).
	band(t, "IAS/CAS initialization", float64(ias.Initialization)/float64(cas.Initialization), 0.5, 2, "the same client-side setup")
}

// TestFigure4LegsPinned holds both attestation flows to the nanosecond.
// Each leg is a sum of priced charges on the worker's own clock, so a
// price that moves or a charge that lands on another leg shows here,
// where TestFigure4Shape's bands would let it through.
func TestFigure4LegsPinned(t *testing.T) {
	rows, err := Figure4(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []Fig4Row{
		{"IAS", 16600000, 287100, 280100000, 100008},
		{"secureTF CAS", 16600000, 287100, 900000, 100008},
	} {
		if got := findFig4(t, rows, want.System); got != want {
			t.Errorf("%s legs: init %d, send-quote %d, wait %d, receive-keys %d ns; pinned %d, %d, %d, %d",
				want.System, got.Initialization, got.SendQuote, got.WaitConfirmation, got.ReceiveKeys,
				want.Initialization, want.SendQuote, want.WaitConfirmation, want.ReceiveKeys)
		}
	}
}

// fig5For indexes rows by (system, model).
func fig5For(t *testing.T, rows []Fig5Row, system, model string) Fig5Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system && r.Model == model {
			return r
		}
	}
	t.Fatalf("no row for %s/%s", system, model)
	return Fig5Row{}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds paper-size models")
	}
	rows, err := Figure5(Config{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range models.PaperModels() {
		native := fig5For(t, rows, "Native glibc", spec.Name)
		musl := fig5For(t, rows, "Native musl", spec.Name)
		sim := fig5For(t, rows, "Sim", spec.Name)
		hw := fig5For(t, rows, "HW", spec.Name)
		graphene := fig5For(t, rows, "Graphene", spec.Name)

		// Paper: Sim within ~5% of native; musl and glibc near parity.
		band(t, spec.Name+" Sim/native", float64(sim.Latency)/float64(native.Latency), 0.97, 1.12, "~1.05")
		band(t, spec.Name+" musl/glibc", float64(musl.Latency)/float64(native.Latency), 0.98, 1.10, "near parity")
		// HW slower than Sim but bounded (paper 1.12–1.39x).
		band(t, spec.Name+" HW/Sim", float64(hw.Latency)/float64(sim.Latency), 1.05, 1.6, "1.12–1.39")
		// Graphene never meaningfully beats secureTF HW.
		band(t, spec.Name+" Graphene/HW", float64(graphene.Latency)/float64(hw.Latency), 0.95, math.Inf(1), "never faster")
	}

	// Crossover: comparable at 42 MB, HW clearly ahead at 163 MB (paper
	// 1.03x → ~1.4x).
	g42 := fig5For(t, rows, "Graphene", "densenet")
	h42 := fig5For(t, rows, "HW", "densenet")
	small := band(t, "densenet Graphene/HW", float64(g42.Latency)/float64(h42.Latency), 0, 1.2, "~1.03 (comparable under EPC)")
	g163 := fig5For(t, rows, "Graphene", "inception_v4")
	h163 := fig5For(t, rows, "HW", "inception_v4")
	big := band(t, "inception_v4 Graphene/HW", float64(g163.Latency)/float64(h163.Latency), 1.15, 2.2, "~1.4")
	if big <= small {
		t.Errorf("Graphene/HW gap must grow with model size: %.2f -> %.2f", small, big)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds paper-size models")
	}
	// Densenet alone is enough to check the FSPF overhead band.
	rows, err := Figure6(Config{Runs: 20, Models: []models.InferenceSpec{models.Densenet}})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Fig6Row{}
	for _, r := range rows {
		byLabel[r.System] = r
	}
	for _, mode := range []string{"Sim", "HW"} {
		plain := byLabel[mode]
		shielded := byLabel[mode+" w/ FSPF"]
		// Paper: 0.12% (Sim) and 0.9% (HW). Anything under ~3% counts as
		// the "negligible" shape; negative would mean mismeasurement.
		band(t, mode+" w/ FSPF / "+mode, float64(shielded.Latency)/float64(plain.Latency), 0.995, 1.03, "<1% overhead")
	}
}

func fig7For(t *testing.T, rows []Fig7Row, system, mode string, cores, nodes int) Fig7Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system && r.Mode == mode && r.Cores == cores && r.Nodes == nodes {
			return r
		}
	}
	t.Fatalf("no row for %s/%s cores=%d nodes=%d", system, mode, cores, nodes)
	return Fig7Row{}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds paper-size models")
	}
	rows, err := Figure7(Config{Images: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Scale-up: everyone improves 1 -> 4 cores.
	for _, sys := range []string{"Native glibc", "Sim", "HW"} {
		one := fig7For(t, rows, sys, "scale-up", 1, 0)
		four := fig7For(t, rows, sys, "scale-up", 4, 0)
		band(t, sys+" 1->4 cores speedup", float64(one.Latency)/float64(four.Latency), 2.5, math.Inf(1), "near-linear")
	}
	// 4 -> 8: Sim keeps improving (hyper-threads), HW regresses (EPC).
	sim4 := fig7For(t, rows, "Sim", "scale-up", 4, 0)
	sim8 := fig7For(t, rows, "Sim", "scale-up", 8, 0)
	if sim8.Latency >= sim4.Latency {
		t.Errorf("Sim did not improve 4->8 threads: %v -> %v", sim4.Latency, sim8.Latency)
	}
	hw4 := fig7For(t, rows, "HW", "scale-up", 4, 0)
	hw8 := fig7For(t, rows, "HW", "scale-up", 8, 0)
	if hw8.Latency <= hw4.Latency {
		t.Errorf("HW kept scaling 4->8 threads (%v -> %v); paper: EPC stops it", hw4.Latency, hw8.Latency)
	}
	// Scale-out: HW scales with nodes (paper: 1180 s -> 403 s at 3 nodes).
	hw1 := fig7For(t, rows, "HW", "scale-out", 4, 1)
	hw3 := fig7For(t, rows, "HW", "scale-out", 4, 3)
	band(t, "HW scale-out 1->3 nodes speedup", float64(hw1.Latency)/float64(hw3.Latency), 2.0, math.Inf(1), "≈2.9")
}

func fig8For(t *testing.T, rows []Fig8Row, system string, workers int) Fig8Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system && r.Workers == workers {
			return r
		}
	}
	t.Fatalf("no row for %s workers=%d", system, workers)
	return Fig8Row{}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs distributed training across 15 configurations")
	}
	rows, err := Figure8(Config{Steps: 6, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	native := fig8For(t, rows, "Native", 1)
	simNoTLS := fig8For(t, rows, "secureTF SIM w/o TLS", 1)
	simTLS := fig8For(t, rows, "secureTF SIM", 1)
	hwTLS := fig8For(t, rows, "secureTF HW", 1)

	// Ordering: native < SIM w/o TLS < SIM < HW.
	if !(native.Latency < simNoTLS.Latency && simNoTLS.Latency < simTLS.Latency && simTLS.Latency < hwTLS.Latency) {
		t.Errorf("ordering broken: native %v, sim-notls %v, sim %v, hw %v",
			native.Latency, simNoTLS.Latency, simTLS.Latency, hwTLS.Latency)
	}
	// Paper factors: HW ≈14x, SIM ≈6x, SIM w/o TLS ≈2.3x native.
	band(t, "HW/native", float64(hwTLS.Latency)/float64(native.Latency), 6, 40, "≈14")
	band(t, "SIM/native", float64(simTLS.Latency)/float64(native.Latency), 2.5, 12, "≈6")
	band(t, "SIM-w/o-TLS/native", float64(simNoTLS.Latency)/float64(native.Latency), 1.3, 5, "≈2.3")
	// Scaling: HW speedup with 3 workers ≈ 2.57x in the paper.
	hw3 := fig8For(t, rows, "secureTF HW", 3)
	band(t, "HW 3-worker speedup", float64(hwTLS.Latency)/float64(hw3.Latency), 1.6, math.Inf(1), "≈2.57")
	// Training must actually learn.
	if hwTLS.FinalLoss >= 2.4 {
		t.Errorf("final loss %.3f did not move below initial ~2.3+", hwTLS.FinalLoss)
	}
}

// TestFigure8PointPinned holds the native, 1-worker, 1-shard Figure 8
// point to what the private fig8Run harness produced at 8c109a3, before
// the figures moved onto securetf.TrainDistributed. One worker is
// deterministic to the nanosecond, so any cost charged differently shows.
// The latencies were re-recorded, 4 127 250 ns lower each, when the
// session folded BiasAdd into the Relu reading it and masked a pooled
// Relu's gradient in the pool's space: two element-wise passes a layer
// fewer to charge. The push bytes and loss bits did not move.
func TestFigure8PointPinned(t *testing.T) {
	cfg := Config{Steps: 6, BatchSize: 50}
	for _, want := range []struct {
		comp      securetf.GradCompression
		latency   time.Duration
		pushBytes int64
		lossBits  uint64
	}{
		{securetf.NoGradCompression(), 201728116, 9854046, 0x4002712380000000},
		{securetf.Int8GradCompression(), 142613716, 2464746, 0x40027123a0000000},
	} {
		res, err := fig8Train(cfg, fig8System{"Native", securetf.NativeGlibc, false}, 1, 1, want.comp)
		if err != nil {
			t.Fatalf("%v: %v", want.comp, err)
		}
		if got := math.Float64bits(res.FinalLoss); res.Latency != want.latency || res.PushBytes != want.pushBytes || got != want.lossBits {
			t.Errorf("%v: latency %d ns, push %d B, loss %#x; pinned %d ns, %d B, %#x", want.comp,
				res.Latency, res.PushBytes, got, want.latency, want.pushBytes, want.lossBits)
		}
	}
}

// speedup2WorkersFloor is the least two workers may speed one worker's
// job up by. It was set at 1.84 less 20 %, when the two pushes' arrival
// order moved the speedup (1.64–1.86 over forty runs). The shard now
// serves them in the order they were sent, and a cheaper worker step
// leaves more of the round to the single shard: it reads 1.646 in every
// run.
const speedup2WorkersFloor = 1.5

func TestFigure8ShardSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs distributed training across 5 cluster configurations")
	}
	rows, err := Figure8Shards(Config{Steps: 8, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	get := func(workers, shards int) Fig8ShardRow {
		for _, r := range rows {
			if r.Workers == workers && r.Shards == shards {
				return r
			}
		}
		t.Fatalf("no row for workers=%d shards=%d", workers, shards)
		return Fig8ShardRow{}
	}
	// The classic worker-scaling speedup survives the sharded refactor.
	band(t, "2-worker speedup", get(2, 1).Speedup1W, speedup2WorkersFloor, math.Inf(1), "≈1.96")
	// The sharding headline: per-shard push wire time drops monotonically
	// as the same 4-worker job fans its gradients over 1 → 2 → 4 shards.
	w1, w2, w4 := get(4, 1).PushWirePerShard, get(4, 2).PushWirePerShard, get(4, 4).PushWirePerShard
	if !(w1 > w2 && w2 > w4) {
		t.Errorf("per-shard push wire not monotonically decreasing: 1 shard %v, 2 shards %v, 4 shards %v", w1, w2, w4)
	}
	// Sharding is a placement decision, not a math change: the trained
	// loss at 4 workers must agree across shard counts (up to float
	// summation order across concurrent pushes).
	base := get(4, 1).FinalLoss
	for _, shards := range []int{2, 4} {
		band(t, fmt.Sprintf("4-worker loss, %d shards / 1", shards), get(4, shards).FinalLoss/base, 0.99, 1.01, "the same model")
	}
}

// The least the push frames of a round may shrink by under each codec:
// they count bytes, so today's 3.997× (int8) and 9.979× (top-k at
// f = 0.05) repeat exactly, and each floor is that less 20 %.
const (
	int8WireFloor = 3.20
	topkWireFloor = 7.99
)

func TestFigure8CompressShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs distributed training across 6 codec/TLS configurations")
	}
	rows, err := Figure8Compress(Config{Steps: 8, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows (3 codecs × TLS on/off), got %d", len(rows))
	}
	get := func(codec string, tls bool) Fig8CompressRow {
		for _, r := range rows {
			if r.Codec == codec && r.TLS == tls {
				return r
			}
		}
		t.Fatalf("no row for codec=%q tls=%v", codec, tls)
		return Fig8CompressRow{}
	}
	for _, tls := range []bool{false, true} {
		none, int8r, topk := get("none", tls), get("int8", tls), get("topk f=0.05", tls)
		// The wire headline: the push-frame bytes each codec saves.
		band(t, fmt.Sprintf("tls=%v none/int8 push bytes", tls),
			float64(none.PushBytesPerRound)/float64(int8r.PushBytesPerRound), int8WireFloor, math.Inf(1), "≈4x")
		band(t, fmt.Sprintf("tls=%v none/top-k push bytes", tls),
			float64(none.PushBytesPerRound)/float64(topk.PushBytesPerRound), topkWireFloor, math.Inf(1), "≈10x at f = 0.05")
		// Smaller frames must show up as less per-shard push wire vtime
		// by at least the same ≥3× factor: send() charges serialization
		// for the bytes actually framed, so this pins the "honest vtime"
		// half of the story. (End-to-end latency also drops, but it
		// carries run-to-run jitter from concurrent push arrival order,
		// so the assertions stick to the deterministic wire quantities.)
		band(t, fmt.Sprintf("tls=%v none/int8 push wire vtime", tls),
			float64(none.PushWirePerShard)/float64(int8r.PushWirePerShard), 3, math.Inf(1), "the byte reduction")
		if !(none.PushWirePerShard > int8r.PushWirePerShard && int8r.PushWirePerShard > topk.PushWirePerShard) {
			t.Errorf("tls=%v: push wire not monotone over codecs: none %v, int8 %v, topk %v",
				tls, none.PushWirePerShard, int8r.PushWirePerShard, topk.PushWirePerShard)
		}
		// The convergence guarantee: error feedback keeps the lossy
		// codecs' final loss within 10% of the uncompressed run.
		for _, r := range []Fig8CompressRow{int8r, topk} {
			band(t, fmt.Sprintf("tls=%v %s/none final loss", tls, r.Codec), r.FinalLoss/none.FinalLoss, 0.9, 1.1, "within 10 %")
		}
	}
}

func TestTFvsTFLiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 91 MB model twice")
	}
	rows, err := TFvsTFLite(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	tfRow, liteRow := rows[0], rows[1]
	// Paper: 71x. The shape requirement is an order-of-magnitude-plus gap
	// caused by EPC behaviour.
	band(t, "TF/TFLite latency", float64(tfRow.Latency)/float64(liteRow.Latency), 15, math.Inf(1), "≈71 (want >> 10)")
	band(t, "TF/TFLite binary size", float64(tfRow.BinaryBytes)/float64(liteRow.BinaryBytes), 40, math.Inf(1), "a far larger binary")
}
