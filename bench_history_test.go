package securetf_test

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
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
// claim is a diff of this file. Under -v it prints, per workload, seed
// and end-to-end metric, the product of the PRs' ratios (benchRatios)
// in PR order: the trajectory, as one ruler computes it.
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
	var rows []historyRow
	sc := bufio.NewScanner(bytes.NewReader(history))
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r historyRow
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		rows = append(rows, r)
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
	if len(rows) == 0 {
		t.Fatal("BENCH_history.jsonl has no rows")
	}
	for key, d := range sides {
		if d != 0 {
			t.Errorf("%s: %+d more parent runs than change runs, want one of each", key, d)
		}
	}

	chain := map[string]float64{}
	prs := map[string]int{}
	for _, r := range benchRatios(rows) {
		line := fmt.Sprintf("PR %d %s seed %d, %d pairs:", r.pr, r.workload, r.seed, r.pairs)
		for _, m := range spec.EndToEnd {
			if ratio, ok := r.ratio[m.Name]; ok {
				if line += fmt.Sprintf(" %s %.4f", m.Name, ratio); r.above[m.Name] >= 0 {
					line += fmt.Sprintf(" (%d above 1)", r.above[m.Name])
				}
				key := fmt.Sprintf("%s seed %d %s", r.workload, r.seed, m.Name)
				if prs[key] == 0 {
					chain[key] = 1
				}
				chain[key] *= ratio
				prs[key]++
			}
		}
		t.Log(line)
	}
	for _, key := range slices.Sorted(maps.Keys(chain)) {
		t.Logf("%s: ×%.4f over %d PRs", key, chain[key], prs[key])
	}
}

// prRatio is one PR's ratio on one workload and seed, per metric: the
// median over its pairs of change ÷ parent, and how many pairs read
// above 1 (-1 for a back-filled row, which holds only the medians' ratio).
type prRatio struct {
	pr       int
	workload string
	seed     int
	pairs    int
	ratio    map[string]float64
	above    map[string]int
}

// benchRatios computes every PR's ratios, in PR order. A PR that
// measured more than one tree of its change is judged on the last tree
// its change rows for the workload and seed name; a back-filled PR's
// ratio is change ÷ parent of the medians it quoted.
func benchRatios(rows []historyRow) []prRatio {
	type series struct {
		pr       int
		workload string
		seed     int
	}
	type pairKey struct {
		series
		pair int
	}
	final := map[series]string{}
	parents, changes := map[pairKey][]historyRow{}, map[pairKey][]historyRow{}
	var order []pairKey
	for _, r := range rows {
		k := pairKey{series{r.PR, r.Workload, *r.Seed}, *r.Pair}
		if r.Side == "parent" {
			parents[k] = append(parents[k], r)
			continue
		}
		if len(changes[k]) == 0 {
			order = append(order, k)
		}
		changes[k] = append(changes[k], r)
		final[k.series] = r.Tree
	}
	ratios := map[series]map[string][]float64{}
	pairs := map[series]int{}
	for _, k := range order {
		for i, c := range changes[k] {
			if i >= len(parents[k]) || c.Tree != final[k.series] {
				continue
			}
			if ratios[k.series] == nil {
				ratios[k.series] = map[string][]float64{}
			}
			pairs[k.series] += max(1, c.Pairs)
			p := parents[k][i]
			for name, m := range c.Metrics {
				if pm, ok := p.Metrics[name]; ok && *pm.Value != 0 {
					ratios[k.series][name] = append(ratios[k.series][name], *m.Value / *pm.Value)
				}
			}
		}
	}
	var out []prRatio
	for s, byMetric := range ratios {
		r := prRatio{pr: s.pr, workload: s.workload, seed: s.seed, pairs: pairs[s],
			ratio: map[string]float64{}, above: map[string]int{}}
		for name, xs := range byMetric {
			slices.Sort(xs)
			r.ratio[name] = (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
			r.above[name] = 0
			for _, x := range xs {
				if x > 1 {
					r.above[name]++
				}
			}
			if changes[pairKey{s, 0}] != nil {
				r.above[name] = -1
			}
		}
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b prRatio) int {
		return cmp.Or(cmp.Compare(a.pr, b.pr), cmp.Compare(a.workload, b.workload), cmp.Compare(a.seed, b.seed))
	})
	return out
}
