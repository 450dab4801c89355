package suite

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/vtime"
)

// The layer replay. After the measured phase of a traced run, each layer
// on the workload's path is driven in isolation through its public
// functions, from these files (spans inside the program are a later
// change). Every timed call is a span under one replay root; a metric is
// the median over its spans.

const (
	probeWarmup   = 2
	probeMinCalls = 10
	probeMaxCalls = 200
	probeMinTime  = 100 * time.Millisecond
	probeMaxTime  = time.Second
	mib           = 1 << 20
)

// prober runs the probes of one traced run.
type prober struct {
	rec    *Recorder
	root   int64
	opts   Options
	out    []Metric
	server *securetf.Container // attested, FS-shielded on a host directory
	client *securetf.Container // attested
	cl     *cluster
}

// timing is what a probe's calls cost: medians per call, and the bytes
// allocated per call.
type timing struct {
	wall, virt time.Duration
	alloc      float64
}

func (p *prober) add(name, unit string, v float64) {
	p.out = append(p.out, Metric{name, unit, v})
}

// sample calls fn a couple of times to warm up, then until it has enough
// samples, each call a replay span on clock (nil for host-side calls).
func (p *prober) sample(layer, name string, clock *vtime.Clock, fn func() error) (timing, error) {
	for i := 0; i < probeWarmup; i++ {
		if err := fn(); err != nil {
			return timing{}, fmt.Errorf("%s %s: %w", layer, name, err)
		}
	}
	var walls, virts []time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		elapsed := time.Since(start)
		n := len(walls)
		if n >= probeMaxCalls || (n >= 3 && elapsed >= probeMaxTime) || (n >= probeMinCalls && elapsed >= probeMinTime) {
			break
		}
		var v0 time.Duration
		if clock != nil {
			v0 = clock.Now()
		}
		sp := p.rec.Start(p.root, -1, layer, name, clock)
		t0 := time.Now()
		err := fn()
		walls = append(walls, time.Since(t0))
		sp.End()
		if err != nil {
			return timing{}, fmt.Errorf("%s %s: %w", layer, name, err)
		}
		if clock != nil {
			virts = append(virts, clock.Now()-v0)
		}
	}
	runtime.ReadMemStats(&after)
	return timing{
		wall:  median(walls),
		virt:  median(virts),
		alloc: float64(after.TotalAlloc-before.TotalAlloc) / float64(len(walls)),
	}, nil
}

// mbPerS is the throughput of moving n bytes in d.
func mbPerS(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / mib / d.Seconds()
}

// layerMetrics assembles the traced run's report: the workload's own
// counters, the replay of every layer on its path, and the process and
// trace diagnostics. Every declared per-layer metric appears exactly
// once; a layer that is not on this workload's path reads 0.
func layerMetrics(o Options, w workload, rec *Recorder, setupSpan int64, untraced float64, ph *phase, mem runtime.MemStats) ([]Metric, error) {
	root := rec.Start(0, -1, "bench", "replay", nil)
	p := &prober{rec: rec, root: root.ID(), opts: o}
	defer func() { p.cl.close() }()
	fops := float64(ph.ops)
	p.out = append(p.out, ph.layer...)
	p.add("sgx.page_faults_per_op", "count", float64(ph.stats.PageFaults)/fops)
	p.add("sgx.transitions_per_op", "count", float64(ph.stats.Transitions)/fops)
	p.add("sgx.async_syscalls_per_op", "count", float64(ph.stats.AsyncSyscalls)/fops)
	p.add("sgx.mb_accessed_per_op", "MiB", float64(ph.stats.BytesAccessed)/fops/mib)
	p.add("sgx.gflop_per_op", "GFLOP", float64(ph.stats.ComputeFLOPs)/fops/1e9)
	p.add("core.setup_vs", "vs", w.setupVirtual().Seconds())
	p.add("load.op_p50_vms", "vms", ms(median(ph.latVirt)))
	p.add("load.op_p99_ms", "ms", ms(quantile(ph.latWall, 0.99)))
	p.add("load.failed_ops_share", "ratio", float64(ph.failed)/float64(ph.attempted))
	p.setupSpans(setupSpan)

	if err := p.start(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// models and federated have no calls to replay: their metrics come off
	// the set-up spans and the workload's own counters.
	none := func() error { return nil }
	probes := map[string]func() error{
		"vtime": p.vtime, "device": p.device, "sgx": p.sgx, "scone": p.scone,
		"seccrypto": p.seccrypto, "fsapi": p.fsapi, "fsshield": p.fsshield,
		"netshield": p.netshield, "cas": p.cas, "core": p.core, "models": none,
		"datasets": p.datasets, "tflite": p.tflite, "tf": p.tf, "dist": p.dist,
		"serving": p.serving, "router": p.router, "federated": none,
	}
	for _, layer := range w.layers() {
		probe, ok := probes[layer]
		if !ok {
			return nil, fmt.Errorf("replay: no probe for layer %q", layer)
		}
		if err := probe(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	root.End()

	p.coverage(o.Workload, ph)
	traced := medianRate(ph.chunks)
	p.add("trace.spans", "count", float64(len(rec.Spans())))
	p.add("trace.overhead_pct", "%", 100*(untraced-traced)/untraced)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	p.add("proc.peak_rss_mb", "MiB", float64(ru.Maxrss)/1024) // Linux reports KiB
	p.add("proc.cpu_s", "s", cpu.Seconds())
	p.add("proc.gc_cycles", "count", float64(mem.NumGC))
	p.add("proc.gc_pause_ms", "ms", float64(mem.PauseTotalNs)/1e6)

	have := make(map[string]bool, len(p.out))
	for _, m := range p.out {
		have[m.Name] = true
	}
	for _, d := range PerLayer {
		if !have[d.Name] {
			p.add(d.Name, d.Unit, 0)
		}
	}
	return p.out, nil
}

// start launches the replay's own two attested nodes, so that probes
// charge clocks no workload node shares.
func (p *prober) start() error {
	dir, err := p.opts.NewVolume()
	if err != nil {
		return err
	}
	if p.cl, err = startCluster(p.rec, p.root, "replay", securetf.TFLiteImage(), p.opts.Seed); err != nil {
		return err
	}
	p.server, err = p.cl.node("probe-server", securetf.ContainerConfig{
		HostFS:        securetf.NewDirFS(dir),
		FSShieldRules: []securetf.Rule{securetf.EncryptPrefix("volumes/")},
	})
	if err != nil {
		return err
	}
	p.client, err = p.cl.node("probe-client", securetf.ContainerConfig{})
	return err
}

// setupSpans reads the metrics that are calls of the workload's own
// set-up off its spans.
func (p *prober) setupSpans(setup int64) {
	byName := make(map[string][]Span)
	for _, s := range p.rec.Spans() {
		if s.Parent == setup {
			key := s.Layer + "." + s.Name
			byName[key] = append(byName[key], s)
		}
	}
	med := func(key string, virtual bool) (float64, bool) {
		var ds []time.Duration
		for _, s := range byName[key] {
			if virtual {
				ds = append(ds, time.Duration(s.VirtEnd-s.VirtStart))
			} else {
				ds = append(ds, time.Duration(s.WallEnd-s.WallStart))
			}
		}
		return ms(median(ds)), len(ds) > 0
	}
	for _, m := range []struct {
		metric, unit, span string
		virtual            bool
	}{
		{"models.build_densenet_ms", "ms", "models.BuildInferenceModel", false},
		{"serving.load_model_ms", "ms", "serving.LoadModel", false},
		{"serving.load_model_vms", "vms", "serving.LoadModel", true},
		{"serving.dial_ms", "ms", "serving.DialModelServer", false},
		{"router.start_ms", "ms", "router.ServeRouter", false},
		{"router.dial_ms", "ms", "router.DialRouter", false},
	} {
		if v, ok := med(m.span, m.virtual); ok {
			p.add(m.metric, m.unit, v)
		}
	}
}

// coverage says how much of an op the replay explains: the replayed
// layers' time per op, each weighted by its calls per op, over the
// measured time per op. On the virtual clock charges add, so it should
// sit near but not above 1; on the wall clock layers overlap on two cores
// and it may exceed 1.
func (p *prober) coverage(workload string, ph *phase) {
	// path lists, per workload, the replayed calls one op makes. Wall
	// metrics are named; the virtual twin is the same name with _vms.
	type call struct {
		metric string
		calls  float64
	}
	path := map[string][]call{
		"serve-steady": {{"tflite.invoke_b1", 1}, {"serving.noop_rt", 1}},
		// One document is a 16-row micro-batch on the OCR node, and its 50 KB
		// cross the wire twice: customer → router (the hop) and router →
		// OCR node (the round trip). The two later steps carry 16×10
		// floats and are not replayed.
		"serve-fleet": {{"tflite.invoke_mlp_b16", 1}, {"serving.noop_rt", 1}, {"router.hop", 1}},
		// One worker-step computes once and exchanges with each shard
		// twice (pull, push); the two workers run side by side, so a
		// step explains twice its share of the makespan.
		"train-sync": {{"tf.train_step", 1.0 / Clients}, {"dist.send_recv", 2 * trainShards / float64(Clients)}},
		"fed-round":  {{"tf.mlp_step", fedLocalSteps}},
	}[workload]
	get := func(name string) float64 {
		for _, m := range p.out {
			if m.Name == name {
				return m.Value
			}
		}
		return 0
	}
	var wall, virt float64
	for _, c := range path {
		wall += get(c.metric+"_ms") * c.calls
		virt += get(c.metric+"_vms") * c.calls
	}
	fops := float64(ph.ops)
	p.add("trace.coverage_wall", "ratio", wall/(ms(ph.wall)/fops))
	p.add("trace.coverage_virtual", "ratio", virt/(ms(ph.virtual)/fops))
}
