package securetf_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
)

// historyRow is one line of BENCH_history.jsonl: the last JSON line
// `bash bench/run.sh -workload W -seed S` printed (correct, attempted,
// failed and metrics), tagged with the PR that measured it, the tree it
// ran (a commit, or `git write-tree` for a change not yet committed),
// the side of the pair, the workload, the seed and the pair. A
// back-filled row holds the medians an earlier PR quoted over Pairs
// pairs, with pair 0 and no op counts.
type historyRow struct {
	PR        int    `json:"pr"`
	Tree      string `json:"tree"`
	Side      string `json:"side"`
	Workload  string `json:"workload"`
	Seed      *int   `json:"seed"`
	Pair      *int   `json:"pair"`
	Backfill  bool   `json:"backfill"`
	Pairs     int    `json:"pairs"`
	Correct   *bool  `json:"correct"`
	Attempted *int   `json:"attempted"`
	Failed    *int   `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestBenchHistory holds the committed benchmark trajectory to its
// format: every row names its PR, tree, side, workload, seed and pair;
// every metric in it is one BENCHMARK.json declares, in the unit it
// declares; and every measured pair has one run of each side, so a perf
// claim is a diff of this file.
func TestBenchHistory(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}

	history, err := os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	tree := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	sides := map[string]int{} // measured pair → parent runs − change runs
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(history))
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r historyRow
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		rows++
		where := fmt.Sprintf("line %d (PR %d, %s)", line, r.PR, r.Workload)
		switch {
		case r.PR < 1:
			t.Errorf("%s: no PR", where)
		case !tree.MatchString(r.Tree):
			t.Errorf("%s: tree %q is not a git hash", where, r.Tree)
		case r.Side != "parent" && r.Side != "change":
			t.Errorf("%s: side %q, want parent or change", where, r.Side)
		case !workloads[r.Workload]:
			t.Errorf("%s: workload not declared in BENCHMARK.json", where)
		case r.Seed == nil || r.Pair == nil:
			t.Errorf("%s: no seed or no pair", where)
		case r.Backfill && (*r.Pair != 0 || r.Pairs < 1):
			t.Errorf("%s: a back-filled row has pair 0 and the count of pairs its medians are over", where)
		case !r.Backfill && (*r.Pair < 1 || r.Correct == nil || r.Attempted == nil || r.Failed == nil):
			t.Errorf("%s: a measured row has a pair ≥ 1 and run.sh's correct, attempted and failed", where)
		case len(r.Metrics) == 0:
			t.Errorf("%s: no metrics", where)
		}
		for name, m := range r.Metrics {
			unit, ok := units[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %q is not declared in BENCHMARK.json", where, name)
			case m.Unit != unit:
				t.Errorf("%s: metric %q in %q, BENCHMARK.json declares %q", where, name, m.Unit, unit)
			case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
				t.Errorf("%s: metric %q has no finite value", where, name)
			}
		}
		if !r.Backfill && r.Pair != nil && r.Seed != nil {
			key := fmt.Sprintf("PR %d %s seed %d pair %d", r.PR, r.Workload, *r.Seed, *r.Pair)
			if r.Side == "parent" {
				sides[key]++
			} else {
				sides[key]--
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("BENCH_history.jsonl has no rows")
	}
	for key, d := range sides {
		if d != 0 {
			t.Errorf("%s: %+d more parent runs than change runs, want one of each", key, d)
		}
	}
}
