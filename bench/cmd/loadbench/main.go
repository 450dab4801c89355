// Command loadbench runs the repo's benchmark: four secure-ML workloads
// on two clocks, and with -trace 1 the layer replay. See ../../README.md.
//
//	loadbench -workload serve-steady -seed 1 -seconds 20 -trace 0
//
// prints every metric by name with its unit and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// -workload all (the default) runs every workload untraced and traced.
// -repeat N runs the untraced set N times in fresh subprocesses and checks
// the run-to-run spread of every end-to-end metric against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"github.com/securetf/securetf/bench/suite"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(suite.Workloads(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "nominal length of the measured phase; sets the op count")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", "", "directory for <workload>.json and <workload>.trace.jsonl (none when empty)")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "tmp"), "directory for the temporary host volumes")
	repeat := flag.Int("repeat", 0, "run the untraced set this many times, one seed each, and check the spreads")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark declaration the -repeat bounds are read from")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	names := []string{*workload}
	if *workload == "all" {
		names = suite.Workloads()
	}
	var err error
	switch {
	case *repeat > 0:
		err = repeatRuns(names, *repeat, *seed, *seconds, *scratch, *spec)
	case *workload == "all":
		for _, name := range names {
			for _, traced := range []bool{false, true} {
				if _, err = runOne(name, *seed, *seconds, traced, *scratch, *out); err != nil {
					break
				}
			}
		}
	default:
		var line []byte
		if line, err = runOne(*workload, *seed, *seconds, *trace == 1, *scratch, *out); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process, prints its metrics and
// returns the report line. All os file I/O of the benchmark is here: the
// temporary host volumes, the result file and the trace file.
func runOne(name string, seed int64, seconds float64, traced bool, scratch, out string) ([]byte, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	volumes := 0
	res, err := suite.Run(suite.Options{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		NewVolume: func() (string, error) {
			volumes++
			dir := filepath.Join(tmp, fmt.Sprintf("vol-%d", volumes))
			return dir, os.MkdirAll(dir, 0o755)
		},
	})
	if err != nil {
		return nil, err
	}

	mode := "end-to-end, tracing off"
	if traced {
		mode = "per-layer, tracing on"
	}
	fmt.Printf("# %s seed %d (%s): %d %ss, %d attempted, %d succeeded, %d failed, %d latency samples",
		name, seed, mode, res.Ops, res.OpName, res.Attempted, res.Attempted-res.Failed, res.Failed, res.Samples)
	if !math.IsNaN(res.Accuracy) {
		fmt.Printf(", final accuracy %.4f", res.Accuracy)
	}
	fmt.Println()
	rep := report{Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, m := range res.Metrics {
		fmt.Printf("%-34s %16.6f %-6s %s\n", m.Name, m.Value, m.Unit, suite.ClockOf(m.Unit))
		rep.Metrics[m.Name] = metric{m.Value, m.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		file := filepath.Join(out, name+".json")
		if traced {
			file = filepath.Join(out, name+".layers.json")
			f, err := os.Create(filepath.Join(out, name+".trace.jsonl"))
			if err != nil {
				return nil, err
			}
			if err := res.Recorder.WriteJSONL(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		if err := os.WriteFile(file, append(line, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if !rep.Correct {
		return line, fmt.Errorf("%s: %d of %d ops failed or returned a wrong output", name, res.Failed, res.Attempted)
	}
	return line, nil
}

// bounds reads the end-to-end metrics' bounds from BENCHMARK.json.
func bounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range decl.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// repeatRuns runs each workload n times untraced, each run a fresh
// process with its own seed, and prints median, quartiles and spread
// (interquartile range over median) of every end-to-end metric. It fails
// when a spread exceeds the metric's bound; set-up time is exempt, as in
// the acceptance check this mirrors.
func repeatRuns(names []string, n int, seed int64, seconds float64, scratch, spec string) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	bound, err := bounds(spec)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var over []string
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", "0", "-scratch", scratch)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed+int64(i), err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", name, seed+int64(i), err)
			}
			for metric, m := range rep.Metrics {
				values[metric] = append(values[metric], m.Value)
			}
		}
		fmt.Printf("# %s: %d runs, seeds %d..%d, %g s each\n", name, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("%-18s %14s %14s %14s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range suite.EndToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			spread := (q3 - q1) / q2
			flag := ""
			if d.Name != "setup_s" && spread > bound[d.Name] {
				flag = "  OVER"
				over = append(over, name+"/"+d.Name)
			}
			fmt.Printf("%-18s %14.6f %14.6f %14.6f %8.2f%% %6.0f%%%s\n",
				d.Name, q1, q2, q3, 100*spread, 100*bound[d.Name], flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}

// quartiles cuts the values as Python's statistics.quantiles(v, n=4)
// does (the exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
