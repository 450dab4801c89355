package suite

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smokeSeconds sizes every workload at about 1 % of a full run.
const smokeSeconds = 0.3

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func smoke(t *testing.T, o Options) *Result {
	t.Helper()
	o.Seconds, o.SetupRepeats = smokeSeconds, 1
	o.NewVolume = func() (string, error) { return t.TempDir(), nil }
	res, err := Run(o)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", o.Workload, o.Trace, err)
	}
	return res
}

// TestDeclaration holds BENCHMARK.json and the Go tables in step.
func TestDeclaration(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(Workloads()) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the suite has %d", len(d.Workloads), len(Workloads()))
	}
	for i, w := range d.Workloads {
		if w.Name != Workloads()[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the suite %q", i, w.Name, Workloads()[i])
		}
	}
	if len(d.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the suite %d", len(d.EndToEnd), len(EndToEnd))
	}
	for i, m := range d.EndToEnd {
		if m.Name != EndToEnd[i].Name || m.Unit != EndToEnd[i].Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json says %s [%s], the suite %s [%s]", i, m.Name, m.Unit, EndToEnd[i].Name, EndToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(d.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the suite %d", len(d.PerLayer), len(PerLayer))
	}
	for i, m := range d.PerLayer {
		if m.Name != PerLayer[i].Name || m.Unit != PerLayer[i].Unit {
			t.Errorf("per-layer %d: BENCHMARK.json says %s [%s], the suite %s [%s]", i, m.Name, m.Unit, PerLayer[i].Name, PerLayer[i].Unit)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, and checks that each
// declared metric is emitted exactly once with its declared unit, that
// nothing undeclared appears, and that no op fails. With -short (the mode
// to run under -race, where the kernels are ten times slower) only
// serve-fleet is traced.
func TestSmoke(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, workload := range Workloads() {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() && workload != "serve-fleet" {
				continue
			}
			want := EndToEnd
			if traced {
				want = PerLayer
			}
			res := smoke(t, Options{Workload: workload, Seed: 1, Trace: traced})
			if res.Failed != 0 || !res.Correct() {
				t.Errorf("%s (trace %v): %d of %d ops failed", workload, traced, res.Failed, res.Attempted)
			}
			seen := make(map[string]int)
			for _, m := range res.Metrics {
				seen[m.Name]++
				if !name.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is not a contract name", workload, m.Name)
				}
			}
			for _, d := range want {
				if seen[d.Name] != 1 {
					t.Errorf("%s (trace %v): %s emitted %d times, want once", workload, traced, d.Name, seen[d.Name])
				}
				if m, _ := res.Metric(d.Name); m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", workload, d.Name, m.Unit, d.Unit)
				}
				delete(seen, d.Name)
			}
			for extra := range seen {
				t.Errorf("%s (trace %v): undeclared metric %s", workload, traced, extra)
			}
			if !traced {
				for _, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, m.Name, m.Value)
					}
				}
			} else if len(res.Recorder.Spans()) == 0 {
				t.Errorf("%s: traced run recorded no span", workload)
			}
		}
	}
}

// TestWrongReferenceFails checks that the correctness checks fire: a
// deliberately wrong reference output must turn into failed ops.
func TestWrongReferenceFails(t *testing.T) {
	for _, workload := range []string{"serve-steady", "serve-fleet"} {
		res := smoke(t, Options{Workload: workload, Seed: 1, CorruptReference: true})
		if res.Failed == 0 || res.Correct() {
			t.Errorf("%s: a wrong reference went unnoticed (%d attempted, %d failed)", workload, res.Attempted, res.Failed)
		}
	}
}

// TestDeterminism: the same seed reproduces the wire volume, the trained
// model and the enclave's compute and memory counts exactly, and
// (fed-round) the virtual round time to 0.1 %; another seed changes the
// generated inputs and nothing about the configuration. Page faults and
// asynchronous syscalls are left out: they follow how the kernel segments
// socket reads and repeat only to about 0.5 %.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three traced runs per training workload")
	}
	exact := map[string][]string{
		"train-sync": {"dist.push_kb_per_step", "dist.final_accuracy", "dist.compute_vms",
			"sgx.transitions_per_op", "sgx.mb_accessed_per_op", "sgx.gflop_per_op"},
		"fed-round": {"federated.uplink_kb_per_update", "federated.final_accuracy",
			"federated.refused_share", "federated.reveals_per_round"},
	}
	for workload, names := range exact {
		a := smoke(t, Options{Workload: workload, Seed: 7, Trace: true})
		b := smoke(t, Options{Workload: workload, Seed: 7, Trace: true})
		c := smoke(t, Options{Workload: workload, Seed: 8, Trace: true})
		value := func(r *Result, name string) float64 {
			m, ok := r.Metric(name)
			if !ok {
				t.Fatalf("%s: no metric %s", workload, name)
			}
			return m.Value
		}
		for _, name := range names {
			if va, vb := value(a, name), value(b, name); va != vb {
				t.Errorf("%s: %s differs between two runs of seed 7: %v vs %v", workload, name, va, vb)
			}
		}
		if va, vb := value(a, "federated.round_vms"), value(b, "federated.round_vms"); math.Abs(va-vb) > 1e-3*va {
			t.Errorf("%s: federated.round_vms differs by more than 0.1 %% between two runs of seed 7: %v vs %v", workload, va, vb)
		}
		if a.Ops != c.Ops || a.Attempted != c.Attempted {
			t.Errorf("%s: the seed changed the op count: %d/%d vs %d/%d", workload, a.Ops, a.Attempted, c.Ops, c.Attempted)
		}
		for _, name := range []string{"dist.push_kb_per_step", "federated.uplink_kb_per_update"} {
			if va, vc := value(a, name), value(c, name); va != vc {
				t.Errorf("%s: the seed changed %s: %v vs %v", workload, name, va, vc)
			}
		}
	}
}
