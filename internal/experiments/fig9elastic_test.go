package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestFigure9ElasticShape pins the elasticity experiment's shape: the
// killed run still commits every round, books exactly one eviction and
// one shrunk round, and the survivors' round throughput stays within
// the detection timeout of the uninterrupted run's.
// survivorRatioFloor is the least of the uninterrupted job's
// committed-round throughput the job that loses one of four workers
// must keep: 0.77 today at this size (up to 0.89, with the order the
// survivors reach the shrunk barrier), less 10 %. At the benchmark's
// size BenchmarkDistElastic holds (W-1)/W outright.
const survivorRatioFloor = 0.70

func TestFigure9ElasticShape(t *testing.T) {
	if testing.Short() {
		t.Skip("the eviction detection window is wall-clock; race-mode compute skew trips it")
	}
	rows, err := Figure9Elastic(Config{Steps: 4, BatchSize: 20})
	if err != nil {
		t.Fatal(err)
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
