package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf"
)

// fig9Timeout is the elastic barrier's detection window: how long, in
// virtual time, a round may stay incomplete after its first push before
// the missing workers are declared dead. The round commits at that
// deadline, so it is also the virtual-time price of each eviction.
const fig9Timeout = time.Second

// Fig9Row is one scenario of the elasticity experiment (§3.2): the
// same synchronous sharded-PS training job run uninterrupted and with
// a worker killed halfway through, reporting the elastic barrier's
// bookkeeping and the round throughput the survivors sustain.
type Fig9Row struct {
	Scenario string
	Workers  int // workers at job start
	Kills    int // workers killed mid-job, never rejoining
	Shards   int
	Rounds   int // rounds committed by every shard
	// Latency is the end-to-end virtual time, the maximum over every
	// node clock; in the kill scenario it includes the detection
	// timeout the survivors wait out. Both scenarios repeat it from run
	// to run.
	Latency time.Duration
	// Evictions/Rejoins/ShrunkRounds are the elastic counters, the
	// maximum over shards (every shard observes the same dead workers).
	Evictions    int
	Rejoins      int
	ShrunkRounds int
	// RoundsPerSec is committed rounds per virtual second — the
	// throughput the elastic barrier preserves when workers die. A
	// barrier without a round timeout scores zero here: the first dead
	// worker wedges the round forever.
	RoundsPerSec float64
}

// Figure9Elastic runs the worker-elasticity experiment: a 4-worker,
// 2-shard synchronous job on SGX hardware mode, first uninterrupted
// and then with one worker killed (no rejoin) at the halfway round.
// The elastic barrier evicts the dead worker after the detection
// timeout, shrinks to the three survivors and commits every remaining
// round — so the killed run still finishes all rounds, at a round
// throughput within the eviction timeout of the baseline's.
func Figure9Elastic(cfg Config) ([]Fig9Row, error) {
	cfg = cfg.withDefaults()
	const workers, shards = 4, 2
	// The one-time detection timeout only tells an elasticity story
	// when it amortizes over a realistic horizon, so this figure trains
	// three times the step budget the other figures use.
	rounds := 3 * cfg.Steps
	scenarios := []struct {
		label string
		kills int
		chaos *securetf.FaultPlan // nil = uninterrupted
	}{
		{"uninterrupted", 0, nil},
		// The last worker dies before the halfway round and never rejoins
		// — the crash the barrier must absorb.
		{"1 worker killed mid-job", 1, &securetf.FaultPlan{Faults: []securetf.Fault{
			{Kind: securetf.FaultKillWorker, Worker: workers - 1, Step: rounds / 2},
		}}},
	}
	var rows []Fig9Row
	for _, sc := range scenarios {
		res, err := securetf.TrainDistributed(securetf.DistTrainConfig{
			Kind:         securetf.SconeHW,
			Workers:      workers,
			PSShards:     shards,
			Rounds:       rounds,
			BatchSize:    cfg.BatchSize,
			LR:           fig8LR,
			NewModel:     fig8Model,
			ShardData:    fig8Data(cfg.BatchSize*rounds, 900),
			RoundTimeout: fig9Timeout,
			Chaos:        sc.chaos,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig9 %s: %w", sc.label, err)
		}
		if res.Rounds != rounds {
			return nil, fmt.Errorf("experiments: fig9 %s committed %d rounds, want %d", sc.label, res.Rounds, rounds)
		}
		row := Fig9Row{
			Scenario: sc.label, Workers: workers, Kills: sc.kills, Shards: shards,
			Rounds: res.Rounds, Latency: res.Latency,
			Evictions: res.Evictions, Rejoins: res.Rejoins, ShrunkRounds: res.ShrunkRounds,
			RoundsPerSec: float64(res.Rounds) / res.Latency.Seconds(),
		}
		cfg.logf("fig9: %-24s %9.2f s (%.3f rounds/vs, evictions=%d shrunk=%d)",
			sc.label, row.Latency.Seconds(), row.RoundsPerSec, row.Evictions, row.ShrunkRounds)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigure9Elastic renders the elasticity rows.
func PrintFigure9Elastic(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9 — worker elasticity: round throughput across a mid-job kill")
	fmt.Fprintf(w, "%-24s %8s %6s %7s %7s %12s %10s %7s %13s\n",
		"scenario", "workers", "kills", "shards", "rounds", "latency(s)", "evictions", "shrunk", "rounds/vs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %6d %7d %7d %12s %10d %7d %13.3f\n",
			r.Scenario, r.Workers, r.Kills, r.Shards, r.Rounds, fmtDurS(r.Latency), r.Evictions, r.ShrunkRounds, r.RoundsPerSec)
	}
	if len(rows) == 2 && rows[0].RoundsPerSec > 0 {
		fmt.Fprintf(w, "survivor throughput: %.2fx of the uninterrupted run\n",
			rows[1].RoundsPerSec/rows[0].RoundsPerSec)
	}
}
