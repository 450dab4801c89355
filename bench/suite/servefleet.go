package suite

import (
	"fmt"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/serving"
)

const (
	fleetDocs     = 64 // distinct seeded documents the clients cycle
	fleetMaxBatch = 16
	// A document is one full micro-batch, so a gateway dispatches it the
	// moment it arrives. With half-batch documents the two closed-loop
	// clients couple through the 2 ms batch window (a document that just
	// misses its peer waits out the timer on all three nodes) and ops_per_s
	// spreads 20 % from run to run; see README, sizing evidence.
	fleetDocRows = fleetMaxBatch
	fleetMaskCls = 10 // the redaction class appended after the ten digits
	fleetOCRPath = "volumes/models/recognizer.stfl"
	fleetGraph   = "digitize"
)

// fleetSensitive are the digit classes the compliance policy redacts.
var fleetSensitive = map[int]bool{3: true, 7: true}

// fleetStages are the graph's steps and the nodes that host them.
var fleetStages = []string{"ocr", "classify", "redact"}

// serveFleet is examples/document_digitization as a load: a router, three
// gateway nodes and a customer, each on its own platform, all attested;
// the graph digitize = Sequence(ocr → classify → redact) with a tiny
// trained MNIST MLP and two fixed-weight stages, micro-batching on, sent
// in 16-row documents. Four TLS hops, three gateway queues and tiny
// kernels: router, serving, net shield, SCONE and framing dominate and
// the kernels are noise.
type serveFleet struct {
	opts Options

	cl       *cluster
	stages   []*securetf.LiteModel // ocr, classify, redact
	gateways []*securetf.ModelServer
	routerC  *securetf.Container
	router   *securetf.Router
	customer *securetf.Container
	conns    []*securetf.RouterClient
	docs     []*securetf.Tensor
	labels   [][]int
	ready    time.Duration
}

func (w *serveFleet) opsPerSecond() float64 { return 1400 }
func (w *serveFleet) opName() string        { return "document" }
func (w *serveFleet) layers() []string {
	return []string{"vtime", "device", "sgx", "scone", "seccrypto", "fsshield", "netshield",
		"cas", "core", "datasets", "tf", "tflite", "serving", "router"}
}

// fleetStage builds a fixed-weight pipeline stage as a Lite model: an
// optional softmax followed by one matrix multiply.
func fleetStage(in, out int, softmax bool, weight func(i, j int) float32) (*securetf.LiteModel, error) {
	vals := make([]float32, in*out)
	for i := 0; i < in; i++ {
		for j := 0; j < out; j++ {
			vals[i*out+j] = weight(i, j)
		}
	}
	wt, err := securetf.TensorFromFloats(securetf.Shape{in, out}, vals)
	if err != nil {
		return nil, err
	}
	g := securetf.NewGraph()
	x := g.Placeholder("in", securetf.Float32, securetf.Shape{-1, in})
	cur := x
	if softmax {
		cur = g.Softmax(cur)
	}
	frozen := &securetf.FrozenModel{Graph: g, Input: x, Output: g.MatMul(cur, g.Const("w", wt))}
	return frozen.ConvertToLite(securetf.ConvertOptions{})
}

// buildStages trains the recognizer for ten steps and builds the two
// fixed-weight stages.
func (w *serveFleet) buildStages(rec *Recorder, parent int64) error {
	xs, ys, err := mnist(rec, parent, 500, 0, w.opts.Seed, false)
	if err != nil {
		return err
	}
	var ocr *securetf.LiteModel
	if err := rec.Do(parent, "tf", "Train", nil, func() error {
		trained, err := securetf.Train(securetf.TrainConfig{
			Model: securetf.NewMNISTMLP(7), XS: xs, YS: ys,
			BatchSize: 50, Steps: 10, Optimizer: securetf.SGD{LR: 0.05},
		})
		if err != nil {
			return err
		}
		defer trained.Close()
		frozen, err := trained.Freeze()
		if err != nil {
			return err
		}
		ocr, err = frozen.ConvertToLite(securetf.ConvertOptions{})
		return err
	}); err != nil {
		return fmt.Errorf("train recognizer: %w", err)
	}
	// classify: softmax the OCR logits, pass the ten digit probabilities
	// through and append the probability mass on the sensitive digits.
	classify, err := fleetStage(10, 11, true, func(i, j int) float32 {
		if i == j || (j == fleetMaskCls && fleetSensitive[i]) {
			return 1
		}
		return 0
	})
	if err != nil {
		return err
	}
	// redact: suppress the digit scores of rows with sensitive mass and
	// boost the mask class.
	redact, err := fleetStage(11, 11, false, func(i, j int) float32 {
		switch {
		case i == fleetMaskCls && j == fleetMaskCls:
			return 3
		case i == fleetMaskCls:
			return -2
		case i == j:
			return 1
		}
		return 0
	})
	if err != nil {
		return err
	}
	w.stages = []*securetf.LiteModel{ocr, classify, redact}
	return nil
}

func (w *serveFleet) setup(rec *Recorder, parent int64) error {
	if err := w.buildStages(rec, parent); err != nil {
		return err
	}
	dir, err := w.opts.NewVolume()
	if err != nil {
		return err
	}
	if w.cl, err = startCluster(rec, parent, "serve-fleet", securetf.TFLiteImage(), w.opts.Seed); err != nil {
		return err
	}
	nodes := make([]securetf.RouterNode, len(fleetStages))
	for i, stage := range fleetStages {
		cfg := securetf.ContainerConfig{}
		if i == 0 {
			// The OCR node stores the recognizer through the FS shield.
			cfg.HostFS = securetf.NewDirFS(dir)
			cfg.FSShieldRules = []securetf.Rule{securetf.EncryptPrefix("volumes/models/")}
		}
		c, err := w.cl.node(stage+"-node", cfg)
		if err != nil {
			return err
		}
		var gw *securetf.ModelServer
		if err := rec.Do(parent, "serving", "ServeModels", c.Clock(), func() error {
			gw, err = securetf.ServeModels(c, securetf.ModelServerConfig{
				Addr: "127.0.0.1:0",
				ServingConfig: securetf.ServingConfig{
					MaxBatch: fleetMaxBatch, BatchWindow: 2 * time.Millisecond, QueueCap: 256,
				},
			})
			return err
		}); err != nil {
			return err
		}
		w.cl.onClose(func() { gw.Close() })
		w.gateways = append(w.gateways, gw)
		if i == 0 {
			if err := rec.Do(parent, "fsshield", "WriteFile", c.Clock(), func() error {
				return securetf.WriteFile(c.FS(), fleetOCRPath, w.stages[0].Marshal())
			}); err != nil {
				return fmt.Errorf("install recognizer: %w", err)
			}
			err = rec.Do(parent, "serving", "LoadModel", c.Clock(), func() error {
				return gw.LoadModel(stage, 1, fleetOCRPath)
			})
		} else {
			err = rec.Do(parent, "serving", "Register", c.Clock(), func() error {
				return gw.Register(stage, 1, w.stages[i])
			})
		}
		if err != nil {
			return err
		}
		nodes[i] = securetf.RouterNode{
			Name: stage + "-node", Addr: gw.Addr(), ServerName: stage + "-node", Models: []string{stage},
		}
	}
	if w.routerC, err = w.cl.node("router-node", securetf.ContainerConfig{}); err != nil {
		return err
	}
	steps := make([]securetf.GraphStep, len(fleetStages))
	for i, stage := range fleetStages {
		steps[i] = securetf.GraphStep{Name: stage, Model: stage}
	}
	if err := rec.Do(parent, "router", "ServeRouter", w.routerC.Clock(), func() error {
		w.router, err = securetf.ServeRouter(w.routerC, securetf.RouterConfig{
			Addr:  "127.0.0.1:0",
			Nodes: nodes,
			Graphs: []securetf.GraphSpec{{
				Name:  fleetGraph,
				Nodes: map[string]securetf.GraphNode{"root": {Kind: securetf.GraphSequence, Steps: steps}},
			}},
		})
		return err
	}); err != nil {
		return err
	}
	w.cl.onClose(func() { w.router.Close() })
	if w.customer, err = w.cl.node("customer-node", securetf.ContainerConfig{}); err != nil {
		return err
	}
	for c := 0; c < Clients; c++ {
		var conn *securetf.RouterClient
		if err := rec.Do(parent, "router", "DialRouter", w.customer.Clock(), func() error {
			conn, err = securetf.DialRouter(w.customer, securetf.RouterClientConfig{
				Addr: w.router.Addr(), ServerName: "router",
				VerifyKey:    w.router.ManifestKey().Public(),
				ExpectGraphs: []string{fleetGraph},
			})
			return err
		}); err != nil {
			return err
		}
		w.cl.onClose(func() { conn.Close() })
		w.conns = append(w.conns, conn)
	}

	digits, _, err := mnist(rec, parent, 0, fleetDocs*fleetDocRows, w.opts.Seed+1, true)
	if err != nil {
		return err
	}
	w.docs = make([]*securetf.Tensor, fleetDocs)
	for i := range w.docs {
		if w.docs[i], err = securetf.SliceRows(digits, i*fleetDocRows, (i+1)*fleetDocRows); err != nil {
			return err
		}
	}
	if err := rec.Do(parent, "router", "warmup", w.routerC.Clock(), func() error {
		for i := 0; i < warmupOps; i++ {
			if _, _, err := w.conns[i%Clients].Infer(fleetGraph, 0, w.docs[i%fleetDocs]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w.ready = maxClock(w.cl.nodes)
	return nil
}

func (w *serveFleet) setupVirtual() time.Duration { return w.ready }

// prepare evaluates the three stages locally, unmetered: the fleet's
// labels must equal these.
func (w *serveFleet) prepare() error {
	locals := make([]*securetf.Classifier, len(w.stages))
	for i, m := range w.stages {
		cl, err := securetf.NewClassifier(nil, m, 0)
		if err != nil {
			return err
		}
		defer cl.Close()
		locals[i] = cl
	}
	w.labels = make([][]int, len(w.docs))
	for i, doc := range w.docs {
		cur := doc
		for _, cl := range locals {
			out, err := cl.Run(cur)
			if err != nil {
				return err
			}
			if cur, err = securetf.TensorFromFloats(out.Shape(), append([]float32(nil), out.Floats()...)); err != nil {
				return err
			}
		}
		labels, err := serving.ArgmaxRows(cur)
		if err != nil {
			return err
		}
		w.labels[i] = labels
	}
	if w.opts.CorruptReference {
		w.labels[0][0] = (w.labels[0][0] + 1) % (fleetMaskCls + 1)
	}
	return nil
}

func (w *serveFleet) measure(rec *Recorder, ops int) (*phase, error) {
	servers := w.cl.nodes[:len(fleetStages)+1] // three gateways and the router
	before, stats := clocks(servers), enclaveStats(servers)
	routerBefore := w.routerC.Clock().Now()
	ph := closedLoop(rec, ops, func(client, op int) (time.Duration, bool, error) {
		i := op % fleetDocs
		out, _, virt, err := w.conns[client].InferTimed(fleetGraph, 0, w.docs[i])
		if err != nil {
			return 0, false, err
		}
		got, err := serving.ArgmaxRows(out)
		if err != nil {
			return 0, false, err
		}
		return virt, sameInts(got, w.labels[i]), nil
	})
	ph.virtual = makespan(servers, before)
	ph.stats = statsDelta(enclaveStats(servers), stats)
	sample, _, err := w.conns[0].Infer(fleetGraph, 0, w.docs[0])
	if err != nil {
		return nil, err
	}
	req, resp, err := wireSizes(
		serving.WireRequest{Model: fleetGraph, Input: w.docs[0]},
		serving.WireResponse{Status: serving.StatusOK, Version: 1, Output: sample})
	if err != nil {
		return nil, err
	}
	ph.wireBytes = int64(ops) * (req + resp)

	snaps := make([][]securetf.ServingMetrics, len(w.gateways))
	for i, gw := range w.gateways {
		snaps[i] = gw.Metrics()
	}
	ph.layer = append(gatewayMetrics(fleetDocRows, snaps...),
		Metric{"serving.wire_req_kb", "KiB", float64(req) / 1024},
		Metric{"serving.wire_resp_kb", "KiB", float64(resp) / 1024},
		Metric{"serving.op_p99_vms", "vms", ms(quantile(ph.latVirt, 0.99))})
	ph.layer = append(ph.layer, w.routerMetrics(ph.virtual, w.routerC.Clock().Now()-routerBefore)...)
	return ph, nil
}

// routerMetrics reads the router's own counters: per-step virtual time
// from the retained graph traces, fail-overs and node errors (expected
// 0), and the router's share of the fleet's virtual makespan — node-side
// savings cannot move ops_per_vs until that share falls below 1.
func (w *serveFleet) routerMetrics(fleet, router time.Duration) []Metric {
	steps := make(map[string][]time.Duration)
	for _, tr := range w.router.Traces(fleetGraph) {
		for _, st := range tr.Steps {
			steps[st.Step] = append(steps[st.Step], st.Vtime)
		}
	}
	var errs int64
	m := w.router.Metrics()
	for _, n := range m.Nodes {
		errs += n.Errors
	}
	out := []Metric{
		{"router.makespan_share", "ratio", float64(router) / float64(fleet)},
		{"router.failovers", "count", float64(m.Failovers)},
		{"router.node_errors", "count", float64(errs)},
	}
	for _, stage := range fleetStages {
		out = append(out, Metric{"router.step_vms_" + stage, "vms", ms(median(steps[stage]))})
	}
	return out
}

func (w *serveFleet) close() { w.cl.close() }

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
