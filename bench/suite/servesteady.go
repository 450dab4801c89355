package suite

import (
	"bytes"
	"fmt"
	"math"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/serving"
)

// steadyInputs is how many distinct seeded inputs serve-steady cycles.
const steadyInputs = 64

// warmupOps is how many ops every serving set-up sends before it counts
// as ready, so caches and lazy set-up are out of the measured phase.
const warmupOps = 8

const steadyModelPath = "volumes/models/densenet.stfl"

// serveSteady is the paper's Figures 5/6 as a service: one attested
// SconeHW node serves densenet (42 MB, inside the 94 MB EPC), loaded
// through the FS shield, over CAS-provisioned mutual TLS; one replica, no
// batching. The tflite kernels and weight streaming do almost all of the
// work; wire, router and CAS almost none.
type serveSteady struct {
	opts Options

	spec    securetf.ModelSpec
	model   *securetf.LiteModel
	cl      *cluster
	server  *securetf.Container
	client  *securetf.Container
	gateway *securetf.ModelServer
	conns   []*securetf.ModelClient
	inputs  []*securetf.Tensor
	refs    []*securetf.Tensor
	ready   time.Duration
}

func (w *serveSteady) opsPerSecond() float64 { return 200 }
func (w *serveSteady) opName() string        { return "request" }
func (w *serveSteady) layers() []string {
	return []string{"vtime", "device", "sgx", "scone", "seccrypto", "fsapi", "fsshield",
		"netshield", "cas", "core", "models", "tflite", "serving"}
}

func (w *serveSteady) setup(rec *Recorder, parent int64) error {
	w.spec = securetf.PaperModels()[0]
	if err := rec.Do(parent, "models", "BuildInferenceModel", nil, func() error {
		w.model = securetf.BuildInferenceModel(w.spec)
		return nil
	}); err != nil {
		return err
	}
	dir, err := w.opts.NewVolume()
	if err != nil {
		return err
	}
	if w.cl, err = startCluster(rec, parent, "serve-steady", securetf.TFLiteImage(), w.opts.Seed); err != nil {
		return err
	}
	w.server, err = w.cl.node("serve-node", securetf.ContainerConfig{
		HostFS:        securetf.NewDirFS(dir),
		FSShieldRules: []securetf.Rule{securetf.EncryptPrefix("volumes/models/")},
	})
	if err != nil {
		return err
	}
	if w.client, err = w.cl.node("client-node", securetf.ContainerConfig{}); err != nil {
		return err
	}
	clock := w.server.Clock()
	if err := rec.Do(parent, "fsshield", "WriteFile", clock, func() error {
		return securetf.WriteFile(w.server.FS(), steadyModelPath, w.model.Marshal())
	}); err != nil {
		return fmt.Errorf("install model: %w", err)
	}
	if err := rec.Do(parent, "serving", "ServeModels", clock, func() error {
		w.gateway, err = securetf.ServeModels(w.server, securetf.ModelServerConfig{
			Addr:          "127.0.0.1:0",
			ServingConfig: securetf.ServingConfig{Replicas: 1, QueueCap: 256},
		})
		return err
	}); err != nil {
		return err
	}
	w.cl.onClose(func() { w.gateway.Close() })
	if err := rec.Do(parent, "serving", "LoadModel", clock, func() error {
		return w.gateway.LoadModel(w.spec.Name, 1, steadyModelPath)
	}); err != nil {
		return err
	}
	for c := 0; c < Clients; c++ {
		var conn *securetf.ModelClient
		if err := rec.Do(parent, "serving", "DialModelServer", w.client.Clock(), func() error {
			conn, err = securetf.DialModelServer(w.client, securetf.ModelClientConfig{
				Addr: w.gateway.Addr(), ServerName: "gateway",
			})
			return err
		}); err != nil {
			return err
		}
		w.cl.onClose(func() { conn.Close() })
		w.conns = append(w.conns, conn)
	}
	w.inputs = make([]*securetf.Tensor, steadyInputs)
	for i := range w.inputs {
		w.inputs[i] = securetf.RandomImageInput(w.spec, 1, w.opts.Seed*steadyInputs+int64(i))
	}
	if err := rec.Do(parent, "serving", "warmup", clock, func() error {
		for i := 0; i < warmupOps; i++ {
			if _, _, err := w.conns[i%Clients].Infer(w.spec.Name, 0, w.inputs[i%steadyInputs]); err != nil {
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

func (w *serveSteady) setupVirtual() time.Duration { return w.ready }

// prepare runs the same model locally, unmetered: the served outputs must
// equal these bit for bit.
func (w *serveSteady) prepare() error {
	local, err := securetf.NewClassifier(nil, w.model, 0)
	if err != nil {
		return err
	}
	defer local.Close()
	w.refs = make([]*securetf.Tensor, steadyInputs)
	for i, in := range w.inputs {
		out, err := local.Run(in)
		if err != nil {
			return err
		}
		// Run returns the interpreter's output buffer; keep a copy.
		if w.refs[i], err = securetf.TensorFromFloats(out.Shape(), append([]float32(nil), out.Floats()...)); err != nil {
			return err
		}
	}
	if w.opts.CorruptReference {
		f := w.refs[0].Floats()
		f[0] = math.Float32frombits(math.Float32bits(f[0]) ^ 1)
	}
	return nil
}

func (w *serveSteady) measure(rec *Recorder, ops int) (*phase, error) {
	servers := []*securetf.Container{w.server}
	before, stats := clocks(servers), enclaveStats(servers)
	ph := closedLoop(rec, ops, func(client, op int) (time.Duration, bool, error) {
		i := op % steadyInputs
		out, _, virt, err := w.conns[client].InferTimed(w.spec.Name, 0, w.inputs[i])
		if err != nil {
			return 0, false, err
		}
		return virt, sameBits(out, w.refs[i]), nil
	})
	ph.virtual = makespan(servers, before)
	ph.stats = statsDelta(enclaveStats(servers), stats)
	req, resp, err := wireSizes(
		serving.WireRequest{Model: w.spec.Name, Input: w.inputs[0]},
		serving.WireResponse{Status: serving.StatusOK, Version: 1, Output: w.refs[0]})
	if err != nil {
		return nil, err
	}
	ph.wireBytes = int64(ops) * (req + resp)
	ph.layer = append(gatewayMetrics(1, w.gateway.Metrics()),
		Metric{"serving.wire_req_kb", "KiB", float64(req) / 1024},
		Metric{"serving.wire_resp_kb", "KiB", float64(resp) / 1024},
		Metric{"serving.op_p99_vms", "vms", ms(quantile(ph.latVirt, 0.99))})
	return ph, nil
}

func (w *serveSteady) close() { w.cl.close() }

// sameBits reports whether two float tensors are identical bit for bit.
func sameBits(a, b *securetf.Tensor) bool {
	af, bf := a.Floats(), b.Floats()
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		if math.Float32bits(af[i]) != math.Float32bits(bf[i]) {
			return false
		}
	}
	return true
}

// wireSizes is the framed size of one request and one response on the
// serving protocol, before TLS.
func wireSizes(req serving.WireRequest, resp serving.WireResponse) (int64, int64, error) {
	var buf bytes.Buffer
	if err := serving.WriteRequest(&buf, req); err != nil {
		return 0, 0, err
	}
	n := int64(buf.Len())
	buf.Reset()
	if err := serving.WriteResponse(&buf, resp); err != nil {
		return 0, 0, err
	}
	return n, int64(buf.Len()), nil
}

// statsDelta subtracts two enclave counter snapshots.
func statsDelta(after, before securetf.EnclaveStats) securetf.EnclaveStats {
	return securetf.EnclaveStats{
		Transitions:   after.Transitions - before.Transitions,
		AsyncSyscalls: after.AsyncSyscalls - before.AsyncSyscalls,
		PageFaults:    after.PageFaults - before.PageFaults,
		BytesAccessed: after.BytesAccessed - before.BytesAccessed,
		ComputeFLOPs:  after.ComputeFLOPs - before.ComputeFLOPs,
	}
}

// gatewayMetrics folds the gateways' counters into the serving layer's
// workload metrics: rows per interpreter invocation, the share of
// requests refused at admission, and the gateway-side virtual latency of
// the slowest model. Served counts requests, so rows scale by the
// request's row count.
func gatewayMetrics(rowsPerRequest int, snaps ...[]securetf.ServingMetrics) []Metric {
	var served, batches, rejected int64
	var p50, p99 time.Duration
	for _, gw := range snaps {
		for _, m := range gw {
			served += m.Served
			batches += m.Batches
			rejected += m.Rejected
			if m.P50 > p50 {
				p50, p99 = m.P50, m.P99
			}
		}
	}
	rows, share := 0.0, 0.0
	if batches > 0 {
		rows = float64(served) * float64(rowsPerRequest) / float64(batches)
	}
	if served+rejected > 0 {
		share = float64(rejected) / float64(served+rejected)
	}
	return []Metric{
		{"serving.rows_per_invoke", "count", rows},
		{"serving.rejected_share", "ratio", share},
		{"serving.gateway_p50_vms", "vms", ms(p50)},
		{"serving.gateway_p99_vms", "vms", ms(p99)},
	}
}
