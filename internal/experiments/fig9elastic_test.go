package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestFigure9ElasticShape pins the elasticity experiment's shape: the
// killed run still commits every round, books exactly one eviction and
// one shrunk round, and the survivors' round throughput stays within
// the detection timeout of the uninterrupted run's. Both rows, the
// uninterrupted job and the one whose round deadline evicts a killed
// worker, repeat in a second run: their Latencies within 5 µs (the root
// package's replayTolerance) and their counters exactly.
// survivorRatioFloor is the least of the uninterrupted job's
// committed-round throughput the job that loses one of four workers
// must keep: it reads 0.746 at this size, on every run, less 6 %. At
// the benchmark's size BenchmarkDistElastic holds (W-1)/W outright.
const survivorRatioFloor = 0.70

func TestFigure9ElasticShape(t *testing.T) {
	cfg := Config{Steps: 4, BatchSize: 20}
	rows, err := Figure9Elastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Figure9Elastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		x, y := rows[i], again[i]
		if d := x.Latency - y.Latency; d > 5*time.Microsecond || d < -5*time.Microsecond {
			t.Errorf("%s: Latency %v, then %v", x.Scenario, x.Latency, y.Latency)
		}
		x.Latency, y.Latency, x.RoundsPerSec, y.RoundsPerSec = 0, 0, 0, 0
		if x != y {
			t.Errorf("%+v, then %+v", x, y)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	base, kill := rows[0], rows[1]
	if base.Kills != 0 || base.Evictions != 0 || base.Rejoins != 0 || base.ShrunkRounds != 0 {
		t.Fatalf("uninterrupted run books elastic events: %+v", base)
	}
	if base.Rounds != 12 || kill.Rounds != 12 {
		t.Fatalf("rounds = %d/%d, want 12/12 — the kill must not cost committed rounds", base.Rounds, kill.Rounds)
	}
	if kill.Kills != 1 || kill.Evictions != 1 || kill.ShrunkRounds != 1 || kill.Rejoins != 0 {
		t.Fatalf("kill run books %+v, want exactly one eviction and one shrunk round", kill)
	}
	if kill.Latency <= base.Latency {
		t.Fatalf("kill latency %v not above baseline %v — the detection timeout was never charged", kill.Latency, base.Latency)
	}
	// Below 1 (the kill's latency is above the baseline's, over as many
	// rounds), and no lower than the detection timeout makes it.
	band(t, "survivor throughput ratio", kill.RoundsPerSec/base.RoundsPerSec, survivorRatioFloor, 1, "(W-1)/W")

	var buf bytes.Buffer
	PrintFigure9Elastic(&buf, rows)
	for _, want := range []string{"Figure 9", "uninterrupted", "1 worker killed mid-job", "survivor throughput"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("print output missing %q:\n%s", want, buf.String())
		}
	}
}
