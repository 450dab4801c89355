// Package suite is the repo's benchmark: four secure-ML workloads driven
// through the public securetf facade on the fully shielded production
// path, measured on two clocks, plus the layer replay that attributes
// the numbers to layers. See ../README.md for the metric tables.
//
// Every metric names its clock by its suffix: *_s, *_ms, *_us and *_ns
// are wall time (the Go code); *_vs, *_vms and *_vus are virtual time
// (the paper's cost model, read off Container.Clock()).
package suite

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	securetf "github.com/securetf/securetf"
)

// Clients is the number of load-generator goroutines (and connections)
// of every workload. It is a constant of the benchmark, not read from
// the machine, so op interleaving is comparable across hosts.
const Clients = 2

// minAccuracy is what a trained model must reach on the test set. The
// gate needs enough training to mean anything, so each training workload
// applies it from a round count on (a full-length untraced run is past it;
// the traced run's halves and the smoke test are not).
const minAccuracy = 0.5

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, the measured phase runs on the last set-up.
const setupRepeats = 5

// Options selects and sizes one run.
type Options struct {
	// Workload is one of Workloads().
	Workload string
	// Seed generates the inputs; nothing else about the program's
	// configuration depends on it.
	Seed int64
	// Seconds sizes the measured phase: the op count is the workload's
	// nominal rate on the 2-vCPU sandbox times Seconds, so a run measures
	// a fixed, seed-independent amount of work.
	Seconds float64
	// Trace records spans, reruns nothing: the traced run is its own run
	// and reports the per-layer metrics instead of the end-to-end ones.
	Trace bool
	// NewVolume returns a fresh, empty host directory for a shielded
	// volume (shielded volumes live on NewDirFS: see README). The caller
	// owns removal.
	NewVolume func() (string, error)
	// CorruptReference flips one reference output, so that the
	// correctness check must report failed ops (tests only).
	CorruptReference bool
	// SetupRepeats overrides setupRepeats when positive (tests only).
	SetupRepeats int
}

// A Metric is one named number with its unit.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Result is what one run reports.
type Result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Ops       int    // ops the measured phase completed
	OpName    string // what one op is
	Attempted int
	Failed    int
	// Samples is the number of latency samples behind op_p50_ms and
	// op_p25_vms.
	Samples int
	// Accuracy is the trained model's accuracy on the fixed test set (NaN
	// when the workload trains nothing).
	Accuracy float64
	// Metrics are the end-to-end metrics (untraced) or the per-layer
	// metrics (traced), each exactly once.
	Metrics []Metric
	// Recorder holds the spans of a traced run.
	Recorder *Recorder
}

// Correct reports whether every output checked out.
func (r *Result) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// Metric looks a metric up by name.
func (r *Result) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// workload is one of the four benchmark workloads.
type workload interface {
	// opsPerSecond is the nominal op rate on the 2-vCPU sandbox.
	opsPerSecond() float64
	// opName names the op for the report.
	opName() string
	// layers lists the layers on the op's path, which the traced run
	// replays in isolation.
	layers() []string
	// setup builds the system up to the first measured op; every call it
	// makes is a child span of parent.
	setup(rec *Recorder, parent int64) error
	// setupVirtual is the latest node clock after setup (0 when the
	// workload sets up inside its measured call).
	setupVirtual() time.Duration
	// prepare does the benchmark's own untimed work, such as computing
	// the reference outputs.
	prepare() error
	// measure runs ops ops and checks their outputs.
	measure(rec *Recorder, ops int) (*phase, error)
	close()
}

// phase is what a measured phase observed.
type phase struct {
	ops               int // ops that completed with a right output
	attempted, failed int
	wall              time.Duration   // first op sent → last op done
	chunks            []chunk         // the phase in consecutive pieces
	virtual           time.Duration   // virtual makespan
	latWall           []time.Duration // per op, client-observed
	latVirt           []time.Duration // per op, as the system reports it
	wireBytes         int64
	allocBytes        uint64
	stats             securetf.EnclaveStats // enclave counters consumed by the phase
	accuracy          float64               // NaN when the workload trains nothing
	gated             bool                  // the phase trained long enough for the accuracy gate
	layer             []Metric              // workload-specific per-layer metrics
}

// chunk is a consecutive piece of a measured phase.
type chunk struct {
	ops  int
	wall time.Duration
}

// medianRate is the median piece's op rate. The sandbox's host slows the
// process down in bursts of a few seconds; the median piece sits on the
// plateau between them, where ops ÷ wall time averages them in.
func medianRate(chunks []chunk) float64 {
	rates := make([]float64, 0, len(chunks))
	for _, c := range chunks {
		if c.wall > 0 {
			rates = append(rates, float64(c.ops)/c.wall.Seconds())
		}
	}
	return median(rates)
}

// Workloads lists the workload names in report order.
func Workloads() []string {
	return []string{"serve-steady", "serve-fleet", "train-sync", "fed-round"}
}

func newWorkload(o Options) (workload, error) {
	switch o.Workload {
	case "serve-steady":
		return &serveSteady{opts: o}, nil
	case "serve-fleet":
		return &serveFleet{opts: o}, nil
	case "train-sync":
		return &trainSync{opts: o}, nil
	case "fed-round":
		return &fedRound{opts: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", o.Workload, Workloads())
}

func opCount(w workload, seconds float64) int {
	n := int(math.Round(w.opsPerSecond() * seconds))
	// Ops are split evenly over the clients.
	n -= n % Clients
	if n < Clients {
		n = Clients
	}
	return n
}

// Run sets the workload up, measures it and checks its outputs.
func Run(o Options) (*Result, error) {
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("Seconds must be positive, got %v", o.Seconds)
	}
	repeats := setupRepeats
	if o.SetupRepeats > 0 {
		repeats = o.SetupRepeats
	}
	var rec *Recorder
	if o.Trace {
		// The traced run decomposes one set-up by layer; repeating it
		// would only repeat the spans.
		rec, repeats = NewRecorder(), 1
	}

	var w workload
	setups := make([]time.Duration, 0, repeats)
	var setupSpan int64
	for i := 0; i < repeats; i++ {
		var err error
		if w, err = newWorkload(o); err != nil {
			return nil, err
		}
		root := rec.Start(0, -1, "bench", "setup", nil)
		start := time.Now()
		err = w.setup(rec, root.ID())
		setups = append(setups, time.Since(start))
		root.End()
		setupSpan = root.ID()
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", o.Workload, err)
		}
		if i < repeats-1 {
			w.close()
		}
	}
	defer w.close()
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", o.Workload, err)
	}

	ops := opCount(w, o.Seconds)
	untraced := 0.0
	if o.Trace {
		// The traced run measures its first half with tracing off: the
		// difference between the halves is the tracing overhead.
		ops = opCount(w, o.Seconds/2)
		ph, err := w.measure(nil, ops)
		if err != nil {
			return nil, fmt.Errorf("%s: measure: %w", o.Workload, err)
		}
		untraced = medianRate(ph.chunks)
	}
	// Collect the set-up's garbage before the measured phase so that
	// every run starts its allocation count from the same heap.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph, err := w.measure(rec, ops)
	if err != nil {
		return nil, fmt.Errorf("%s: measure: %w", o.Workload, err)
	}
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc

	if ph.ops == 0 {
		return nil, fmt.Errorf("%s: no op succeeded (%d attempted)", o.Workload, ph.attempted)
	}
	res := &Result{
		Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Ops: ph.ops, OpName: w.opName(),
		Attempted: ph.attempted, Failed: ph.failed, Samples: len(ph.latWall),
		Accuracy: ph.accuracy, Recorder: rec,
	}
	if ph.gated && ph.accuracy < minAccuracy {
		// A model that did not learn is a wrong output of the whole run.
		res.Failed++
	}
	if o.Trace {
		res.Metrics, err = layerMetrics(o, w, rec, setupSpan, untraced, ph, after)
		return res, err
	}
	fops := float64(ph.ops)
	// Virtual op latency is reported at its first quartile, not its median.
	// A node's clock is shared, so an op is charged whatever the other
	// client's op spent on that clock while the two overlapped: on
	// serve-fleet the latencies fall into modes (127, 143, 266, 773 vus)
	// whose shares follow the wall-clock interleaving, and the median sits
	// on the edge between two of them. The lowest mode, an op that
	// overlapped nothing, holds 40-75 % of the ops under any host load,
	// so the first quartile reads the cost model and not the scheduler.
	res.Metrics = []Metric{
		{"setup_s", "s", median(setups).Seconds()},
		{"ops_per_s", "op/s", medianRate(ph.chunks)},
		{"ops_per_vs", "op/vs", fops / ph.virtual.Seconds()},
		{"op_p50_ms", "ms", ms(median(ph.latWall))},
		{"op_p25_vms", "vms", ms(quantile(ph.latVirt, 0.25))},
		{"alloc_mb_per_op", "MiB", float64(ph.allocBytes) / fops / mib},
		{"wire_kb_per_op", "KiB", float64(ph.wireBytes) / fops / 1024},
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value (the mean of the two middles).
func median[T float64 | time.Duration](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile by nearest rank.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
