// Package serving is secureTF's model-serving gateway: the
// production-grade successor to the §4.2 single-model classifier
// service. One gateway hosts many Lite models behind the container's
// (typically shielded) listener, each as a versioned registry entry with
// its own interpreter-replica pool, and serves classification traffic
// with adaptive micro-batching and explicit admission control.
//
// The design follows where the enclave measurements say the money is:
// per-request costs (weight streaming, record crypto, transitions)
// dominate SGX-style inference, so requests arriving within a short
// batching window are coalesced into a single batched tensor invocation
// and their outputs split back per caller — amortizing the per-invoke
// cost across the batch. A bounded per-model queue rejects overflow with
// a distinct wire status instead of letting goroutines pile up, so
// clients can back off. Hot-swapping the serving version is atomic:
// in-flight work finishes on the version it resolved, new work resolves
// to the new one, and nothing is dropped.
//
// On top of that data plane sits a control plane in three layers:
//
//   - Config (config.go): every model runs with the gateway's Config,
//     except for its admission-queue bound, which SetQueueCap moves
//     live, per model.
//   - Autoscaler (autoscale.go): replica counts become live quantities
//     driven by queue depth and rejections on deterministic virtual-time
//     ticks; idle models scale to zero and their interpreter pools are
//     evicted, repopulating lazily on the next request.
//   - Rollout (canary.go): StartCanary routes a weighted share of
//     unpinned traffic to a candidate version and automatically promotes
//     or rolls back off a rejection-rate and p99 comparison against the
//     incumbent over a fixed request window.
//
// # Who owns what
//
// A warm round allocates next to nothing on the server side, because
// every buffer on the serving wire has one owner:
//
//   - A server connection (ServeRounds, under both the gateway and the
//     router) owns the frame last read, the frame last written and its
//     request tensor. A request of that tensor's dtype and shape is
//     decoded into it; any other request replaces it. A request's Input
//     is therefore the connection's until the handler returns: the
//     handler may read it — the router's Ensemble does, from one
//     goroutine a branch — but must not write it, keep it, or let
//     anything read it afterwards. The gateway's submit returns only
//     once its batch has answered the request, and a batch reads no
//     member's input after answering it; the router's route is
//     synchronous.
//   - A response's Output need hold still only until ServeRounds has
//     written it, which is before it reads the next request, so it is
//     the connection's too. A gateway connection owns one request record,
//     with its reply channel, and one reply tensor: the batch that holds
//     the request copies the caller's rows (or their argmax classes) out
//     of the interpreter's output, which is the replica's until its next
//     Invoke, into the reply tensor before the replica goes back to its
//     pool, answers once, and touches the record no more. A router
//     connection owns its graph run: the step records and the stage
//     tensors each stage's reply is decoded into (DoInto).
//   - The frames grow to the largest the connection has carried (at most
//     wire.MaxFrame) and go when it closes, as a dist.Link's do. A
//     per-protocol cap is a separate matter.
//   - A Client owns its request and response frames, under its mutex.
//     The tensors it returns are decoded into storage of their own, the
//     caller's, or, through DoInto, into a tensor the caller owns; the
//     tensors it is given need only hold still for the call.
//   - WriteRequest, ReadRequest, WriteResponse and ReadResponse are the
//     buffer-per-call forms: each allocates its frame, and what
//     ReadRequest and ReadResponse return is the caller's to keep.
package serving

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
)

// Config tunes a gateway: every model it serves runs with these knobs,
// and SetQueueCap moves one model's QueueCap live.
type Config struct {
	// Replicas is the interpreter-pool size per model version (default
	// 1). It also bounds a model's in-flight batches: when every replica
	// is busy, dispatch stalls, the admission queue fills and overflow
	// is rejected — backpressure instead of goroutine pileup. With
	// Autoscale set, Replicas is only the starting point; the autoscaler
	// owns the live count from then on.
	Replicas int
	// Threads is the device thread count per replica (0 = container
	// default).
	Threads int
	// MaxBatch is the most input rows coalesced into one invocation.
	// <= 1 disables micro-batching.
	MaxBatch int
	// BatchWindow is how long the dispatcher waits for more requests
	// after the first of a batch. When MaxBatch > 1 it defaults to
	// DefaultBatchWindow, so enabling batching by size alone is never a
	// silent no-op; set MaxBatch <= 1 to disable batching.
	BatchWindow time.Duration
	// QueueCap bounds each model's admission queue (default 64). A full
	// queue rejects with StatusOverloaded.
	QueueCap int
	// Autoscale, when non-nil, enables the metric-driven replica
	// autoscaler for every model on the gateway.
	Autoscale *AutoscaleConfig

	// gate, when set, makes dispatchers wait on it before every pull —
	// a test hook for deterministic queue-pressure scenarios.
	gate chan struct{}
}

// DefaultBatchWindow is the batching window used when MaxBatch enables
// micro-batching but no window is set.
const DefaultBatchWindow = 2 * time.Millisecond

// withDefaults fills in unset fields.
func (cfg Config) withDefaults() Config {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 64
	}
	if cfg.MaxBatch > 1 && cfg.BatchWindow <= 0 {
		cfg.BatchWindow = DefaultBatchWindow
	}
	return cfg
}

// Gateway serves registered models on a container listener.
type Gateway struct {
	container *core.Container
	cfg       Config
	caps      queueCaps
	scaler    *autoscaler // nil when autoscaling is off
	clock     *vtime.Clock
	ln        net.Listener
	srv       *wire.Server // accept loop + conn handlers
	reg       registry

	dispatchWG sync.WaitGroup // per-model dispatchers
	inflight   sync.WaitGroup // running batches
	closeOnce  sync.Once
	closed     chan struct{} // no new conns/admissions
	drain      chan struct{} // dispatchers may exit once queues empty
	closeErr   error
}

// NewGateway opens a listener through the container (wrapped by the
// network shield when provisioned) and starts serving. Models are added
// with Register / LoadModel.
func NewGateway(c *core.Container, addr string, cfg Config) (*Gateway, error) {
	if c == nil {
		return nil, fmt.Errorf("serving: nil container")
	}
	cfg = cfg.withDefaults()
	if cfg.Autoscale != nil {
		if err := cfg.Autoscale.validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Replicas > maxReplicas {
		return nil, fmt.Errorf("serving: Replicas %d exceeds the %d ceiling", cfg.Replicas, maxReplicas)
	}
	if cfg.QueueCap > maxQueueCap {
		return nil, fmt.Errorf("serving: QueueCap %d exceeds the %d ceiling", cfg.QueueCap, maxQueueCap)
	}
	ln, err := c.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		container: c,
		cfg:       cfg,
		caps:      queueCaps{base: cfg.QueueCap, model: make(map[string]int)},
		clock:     c.Clock(),
		ln:        ln,
		reg:       registry{models: make(map[string]*servedModel)},
		closed:    make(chan struct{}),
		drain:     make(chan struct{}),
	}
	if cfg.Autoscale != nil {
		g.scaler = newAutoscaler(*cfg.Autoscale, g.clock.Now())
	}
	g.srv = wire.Serve(ln, func(conn net.Conn) {
		req := &request{resp: make(chan WireResponse, 1)}
		ServeRounds(conn, func(wr WireRequest) WireResponse { return g.submit(req, wr) })
	})
	return g, nil
}

// Addr returns the gateway's listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// submit runs admission control for one request, filled into its
// connection's record req, and waits for its response. Every admitted
// request is answered: dispatchers outlive the connection handlers that
// feed them. Unpinned requests may be routed to an active canary
// candidate; the admission bound is the model's live QueueCap, read once
// so a rejection names the bound it enforced. It returns only once the
// batch holding the request has answered it, and a batch touches no
// member's record after answering it, so the connection's input tensor,
// record and reply tensor are the connection's again when submit
// returns (ServeRounds).
func (g *Gateway) submit(req *request, wr WireRequest) WireResponse {
	if wr.ListModels {
		// The placement control round: answer with the registered model
		// names so a router can verify its manifest against what this
		// node actually serves, before any traffic flows.
		return WireResponse{Status: StatusModels, Message: strings.Join(g.Models(), ",")}
	}
	if wr.Model == "" {
		wr.Model = DefaultModelName
	}
	m := g.lookup(wr.Model)
	if m == nil {
		return WireResponse{Status: StatusNotFound, Message: fmt.Sprintf("unknown model %q", wr.Model)}
	}
	if len(wr.Input.Shape()) == 0 || wr.Input.Shape()[0] < 1 {
		return WireResponse{Status: StatusBadRequest, Message: fmt.Sprintf("input shape %v has no batch rows", wr.Input.Shape())}
	}
	if wr.Input.DType() != tf.Float32 {
		// A Lite model's inputs are float32; anything else is the
		// caller's mistake, not the node's.
		return WireResponse{Status: StatusBadRequest, Message: fmt.Sprintf("input is %v, models take float32", wr.Input.DType())}
	}
	select {
	case <-g.closed:
		return WireResponse{Status: StatusShuttingDown, Message: "gateway draining"}
	default:
	}
	version, canaryRouted := wr.Version, false
	if version == 0 {
		version, canaryRouted = m.routeCanary()
	}
	req.version, req.fallback, req.argmax = version, canaryRouted, wr.Argmax
	req.input, req.rows, req.start = wr.Input, wr.Input.Shape()[0], g.clock.Now()
	m.arrivals.Add(1)
	if queueCap := g.caps.of(m.name); !m.admit(req, queueCap) {
		m.rejected.Add(1)
		g.maybeTick()
		return WireResponse{Status: StatusOverloaded, Message: fmt.Sprintf("model %q queue full (%d)", m.name, queueCap)}
	}
	g.wake(m)
	g.maybeTick()
	return <-req.resp
}

// Close drains the gateway: it stops accepting, closes every live
// connection (so handlers parked in blocking reads wake up), waits for
// handlers, lets dispatchers finish
// or refuse what is queued, waits out running batches and releases every
// interpreter pool.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		close(g.closed)
		g.closeErr = g.srv.Close()
		// Stop dispatcher spawns before waiting on them: a Register
		// that slipped past the closed channel either landed its
		// dispatcher before this (and is waited on) or observes
		// reg.closed under the lock and bails.
		g.reg.mu.Lock()
		g.reg.closed = true
		g.reg.mu.Unlock()
		// No conn handlers remain, so nothing can enqueue; release the
		// dispatchers and wait for in-flight batches.
		close(g.drain)
		g.dispatchWG.Wait()
		g.inflight.Wait()
		g.reg.mu.Lock()
		defer g.reg.mu.Unlock()
		for _, m := range g.reg.models {
			m.mu.Lock()
			for _, v := range m.versions {
				v.pool.close()
			}
			m.versions = make(map[int]*modelVersion)
			m.mu.Unlock()
		}
	})
	return g.closeErr
}
