// Package router is the front-end tier of the serving fleet: one
// attested router process spreads traffic across N attested gateway
// nodes and executes inference graphs that span them.
//
// The router holds a placement — which models each node serves —
// verified against every node at startup (the dist manifest-handshake
// idiom: a node that does not serve what the placement declares is a
// construction error, not a runtime surprise) and published to clients
// at dial time as a signed manifest. Requests for a plain model are
// spread over the nodes hosting it by smooth weighted round-robin,
// where the weights follow per-node rejection and error rates sampled
// on virtual-time ticks; a node that dies mid-request is marked dead,
// its request fails over to the next hosting node, and a later tick
// probes it for recovery. Requests naming a graph run the compiled
// graph: each step is itself routed (with the same fail-over) and the
// response carries the summed per-step virtual service time, with the
// full per-step trace retained in the router's metrics.
package router

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/serving"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
)

// ErrManifestMismatch marks placement-manifest failures: a node that
// does not serve its declared models at router startup, or a client
// expectation the manifest cannot satisfy at dial time.
var ErrManifestMismatch = errors.New("router: placement manifest mismatch")

// NodeSpec declares one gateway node of the fleet.
type NodeSpec struct {
	// Name identifies the node in the manifest, metrics and traces.
	Name string
	// Addr is the node's gateway address.
	Addr string
	// ServerName is the TLS identity the node must present when the
	// router's container has the network shield provisioned (empty for
	// plain TCP).
	ServerName string
	// Models are the models the placement declares on this node. The
	// router verifies the node actually serves them before coming up.
	Models []string
}

// Config tunes a Router.
type Config struct {
	// Nodes is the fleet placement (at least one node).
	Nodes []NodeSpec
	// Graphs are the inference graphs to compile and serve. Graph names
	// share the request namespace with model names and must not collide
	// with any placed model.
	Graphs []GraphSpec
	// Key signs the placement manifest; a fresh key is generated when
	// nil. Clients pin the public key via their VerifyKey.
	Key *seccrypto.SigningKey
}

const (
	// tickEvery is the virtual-time period of the health ticks that
	// refresh spread weights and probe dead nodes.
	tickEvery = 20 * time.Millisecond
	// poolSize caps the cached backend connections per node; bursts
	// beyond it dial extra connections that are closed on return.
	poolSize = 4
)

// node is the router's live state for one gateway node.
type node struct {
	spec  NodeSpec
	index int

	mu   sync.Mutex
	free []*serving.Client // cached backend connections

	dead   atomic.Bool
	weight atomic.Int64 // spread weight, 1..100 (dead nodes are skipped)
	// current is the smooth-weighted-round-robin accumulator, guarded by
	// the router's pickMu.
	current int64

	requests   atomic.Int64
	rejections atomic.Int64
	errors     atomic.Int64
	failovers  atomic.Int64
	// Tick-window snapshots, guarded by the router's tickMu.
	lastRequests, lastRejections, lastErrors int64
}

// Router fronts a fleet of gateway nodes.
type Router struct {
	container *core.Container
	clock     *vtime.Clock
	key       *seccrypto.SigningKey
	manifest  Manifest

	nodes     []*node
	placement map[string][]*node // model → hosting nodes, placement order
	graphs    map[string]*compiledGraph

	ln        net.Listener
	srv       *wire.Server
	closeOnce sync.Once
	closed    chan struct{}
	closeErr  error

	pickMu   sync.Mutex // smooth-RR accumulators
	tickMu   sync.Mutex // tick-window snapshots
	lastTick time.Duration

	traces traceStore
}

// New verifies the placement against every node, compiles the graphs,
// signs the manifest and starts the router listener on addr.
//
// Placement verification is the fail-fast half of the manifest
// handshake: the router dials each node (through the container's
// shielded dial when provisioned), asks for its registered models and
// refuses to start — ErrManifestMismatch — if a declared model is
// missing. The verification connections are kept as the first entries
// of each node's pool.
func New(c *core.Container, addr string, cfg Config) (*Router, error) {
	if c == nil {
		return nil, fmt.Errorf("router: nil container")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("router: no nodes configured")
	}

	r := &Router{
		container: c,
		clock:     c.Clock(),
		key:       cfg.Key,
		placement: make(map[string][]*node),
		graphs:    make(map[string]*compiledGraph),
		closed:    make(chan struct{}),
		lastTick:  c.Clock().Now(),
	}
	if r.key == nil {
		key, err := seccrypto.NewSigningKey()
		if err != nil {
			return nil, fmt.Errorf("router: generate manifest key: %w", err)
		}
		r.key = key
	}

	seen := make(map[string]bool)
	for i, spec := range cfg.Nodes {
		if spec.Name == "" || spec.Addr == "" {
			return nil, fmt.Errorf("router: node %d needs a name and an address", i)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("router: duplicate node name %q", spec.Name)
		}
		seen[spec.Name] = true
		if len(spec.Models) == 0 {
			return nil, fmt.Errorf("router: node %q places no models", spec.Name)
		}
		n := &node{spec: spec, index: i}
		n.weight.Store(100)
		r.nodes = append(r.nodes, n)
		for _, model := range spec.Models {
			r.placement[model] = append(r.placement[model], n)
		}
	}

	// Verify every node serves its declared placement before any client
	// traffic can resolve to it.
	for _, n := range r.nodes {
		cl, err := r.verify(n)
		if err != nil {
			r.closePools()
			return nil, err
		}
		n.free = append(n.free, cl)
	}

	for _, spec := range cfg.Graphs {
		cg, err := compileGraph(spec, r.placement)
		if err != nil {
			r.closePools()
			return nil, err
		}
		if _, dup := r.graphs[spec.Name]; dup {
			r.closePools()
			return nil, fmt.Errorf("router: duplicate graph %q", spec.Name)
		}
		r.graphs[spec.Name] = cg
	}

	r.manifest = r.buildManifest()
	ln, err := c.Listen("tcp", addr)
	if err != nil {
		r.closePools()
		return nil, err
	}
	r.ln = ln
	r.srv = wire.Serve(ln, r.handle)
	return r, nil
}

// buildManifest assembles the signed placement manifest.
func (r *Router) buildManifest() Manifest {
	var m Manifest
	for _, n := range r.nodes {
		models := append([]string(nil), n.spec.Models...)
		sort.Strings(models)
		m.Nodes = append(m.Nodes, NodeInfo{Name: n.spec.Name, Addr: n.spec.Addr, Models: models})
	}
	for name := range r.graphs {
		m.Graphs = append(m.Graphs, name)
	}
	sort.Strings(m.Graphs)
	return m
}

// Addr returns the router's listen address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Manifest returns the placement manifest the router publishes.
func (r *Router) Manifest() Manifest { return r.manifest }

// ManifestKey returns the signing key of the placement manifest; its
// public half is what clients pin.
func (r *Router) ManifestKey() *seccrypto.SigningKey { return r.key }

// handle serves one client connection: the manifest handshake, then a
// sequence of serving-protocol rounds.
func (r *Router) handle(conn net.Conn) {
	h, err := readHello(conn)
	if err != nil {
		return
	}
	// The server half of the dial-time check: refuse a client whose
	// expectations the manifest cannot satisfy, naming the first gap.
	refusal := ""
	for _, model := range h.Models {
		if !r.manifest.HasModel(model) {
			refusal = fmt.Sprintf("no node places model %q", model)
			break
		}
	}
	if refusal == "" {
		for _, graph := range h.Graphs {
			if !r.manifest.HasGraph(graph) {
				refusal = fmt.Sprintf("no graph %q", graph)
				break
			}
		}
	}
	if err := writeManifestReply(conn, r.key, r.manifest, refusal); err != nil || refusal != "" {
		return
	}
	run := &graphRun{r: r}
	serving.ServeRounds(conn, func(req serving.WireRequest) serving.WireResponse { return r.route(run, req) })
}

// route answers one request of the connection whose run is run: the
// model/graph listing, a compiled graph execution, or a weighted-spread
// forward of a plain model request. It is synchronous — every forward,
// and every Ensemble branch, has finished with the request's input when
// it returns — which is what lets ServeRounds decode the connection's
// next request into the same tensor, and the next request reuse run.
func (r *Router) route(run *graphRun, req serving.WireRequest) serving.WireResponse {
	select {
	case <-r.closed:
		return serving.WireResponse{Status: serving.StatusShuttingDown, Message: "router draining"}
	default:
	}
	defer r.maybeTick()
	if req.ListModels {
		names := r.manifest.Models()
		names = append(names, r.manifest.Graphs...)
		sort.Strings(names)
		return serving.WireResponse{Status: serving.StatusModels, Message: strings.Join(names, ",")}
	}
	if req.Model == "" {
		req.Model = serving.DefaultModelName
	}
	run.reset()
	if cg, ok := r.graphs[req.Model]; ok {
		return r.routeGraph(run, cg, req)
	}
	resp, _ := run.forward(req.Model, req.Version, req.Argmax, req)
	return resp
}

// forwardModel routes one model request across the nodes hosting it:
// smooth weighted round-robin over the live nodes, failing over — and
// marking the node dead — on transport errors and draining nodes. It
// returns the backend response, its tensor decoded into into if that
// fits (serving.DoInto), plus the name of the node that served it
// (empty when no node could).
func (r *Router) forwardModel(model string, version int, argmax bool, req serving.WireRequest, into *tf.Tensor) (serving.WireResponse, string) {
	hosts := r.placement[model]
	if len(hosts) == 0 {
		return serving.WireResponse{
			Status:  serving.StatusNotFound,
			Message: fmt.Sprintf("router: no node places model %q", model),
		}, ""
	}
	req.Model, req.Version, req.Argmax, req.ListModels = model, version, argmax, false
	var few [8]bool
	tried := few[:]
	if len(hosts) > len(few) {
		tried = make([]bool, len(hosts))
	}
	for attempt := 0; attempt < len(hosts); attempt++ {
		n, slot := r.pick(hosts, tried)
		if n == nil {
			break
		}
		tried[slot] = true
		resp, err := r.forwardOnce(n, req, into)
		if err != nil || resp.Status == serving.StatusShuttingDown {
			// The node is gone or draining: take it out of the spread and
			// let the next hosting node absorb the request. A health tick
			// probes it for recovery later.
			r.markDead(n)
			continue
		}
		return resp, n.spec.Name
	}
	return serving.WireResponse{
		Status:  serving.StatusInternal,
		Message: fmt.Sprintf("router: no live node for model %q", model),
	}, ""
}

// forwardOnce runs one request round against one node, decoding its
// tensor into into if that fits.
func (r *Router) forwardOnce(n *node, req serving.WireRequest, into *tf.Tensor) (serving.WireResponse, error) {
	cl, err := r.conn(n)
	if err != nil {
		return serving.WireResponse{}, err
	}
	resp, err := serving.DoInto(cl, req, into)
	if err != nil {
		cl.Close()
		return serving.WireResponse{}, err
	}
	r.putConn(n, cl)
	n.requests.Add(1)
	switch resp.Status {
	case serving.StatusOverloaded:
		n.rejections.Add(1)
	case serving.StatusInternal:
		n.errors.Add(1)
	}
	return resp, nil
}

// pick chooses the next node by smooth weighted round-robin over the
// hosts not yet tried and not dead — deterministic for a given request
// order, spreading load in proportion to the health-driven weights. It
// returns the node and its slot in hosts (nil when none remain).
func (r *Router) pick(hosts []*node, tried []bool) (*node, int) {
	r.pickMu.Lock()
	defer r.pickMu.Unlock()
	var (
		best  *node
		slot  int
		total int64
	)
	for i, n := range hosts {
		if tried[i] || n.dead.Load() {
			continue
		}
		w := n.weight.Load()
		n.current += w
		total += w
		if best == nil || n.current > best.current {
			best, slot = n, i
		}
	}
	if best != nil {
		best.current -= total
	}
	return best, slot
}

// markDead removes a node from the spread until a probe revives it and
// flushes its connection pool — every cached conn shares the fate of
// the one that just failed, and keeping them would only feed the next
// requests stale transports.
func (r *Router) markDead(n *node) {
	n.dead.Store(true)
	n.failovers.Add(1)
	n.mu.Lock()
	free := n.free
	n.free = nil
	n.mu.Unlock()
	for _, cl := range free {
		cl.Close()
	}
}

// conn pops a cached backend connection for n, dialing a fresh one when
// the pool is empty.
func (r *Router) conn(n *node) (*serving.Client, error) {
	n.mu.Lock()
	if len(n.free) > 0 {
		cl := n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		n.mu.Unlock()
		return cl, nil
	}
	n.mu.Unlock()
	return serving.Dial(r.container, n.spec.Addr, n.spec.ServerName)
}

// putConn returns a backend connection to n's pool, closing it when the
// pool is at capacity.
func (r *Router) putConn(n *node, cl *serving.Client) {
	n.mu.Lock()
	if len(n.free) < poolSize {
		n.free = append(n.free, cl)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	cl.Close()
}

// maybeTick runs a health tick when tickEvery of virtual time has
// passed since the last one: weights follow each node's rejection and
// error rates over the window, and dead nodes are probed for recovery.
// Lazy ticks keep the router deterministic — health evolves with the
// workload's virtual time, not a wall-clock timer.
func (r *Router) maybeTick() {
	now := r.clock.Now()
	r.tickMu.Lock()
	defer r.tickMu.Unlock()
	if now-r.lastTick < tickEvery {
		return
	}
	r.lastTick = now
	for _, n := range r.nodes {
		req := n.requests.Load()
		rej := n.rejections.Load()
		errs := n.errors.Load()
		dReq := req - n.lastRequests
		dRej := rej - n.lastRejections
		dErr := errs - n.lastErrors
		n.lastRequests, n.lastRejections, n.lastErrors = req, rej, errs
		if n.dead.Load() {
			r.probe(n)
			continue
		}
		// A rejecting or erroring node keeps a sliver of traffic (weight
		// floor 1) so the router can observe it recovering; a clean
		// window restores full weight.
		w := int64(100)
		if dReq > 0 {
			w = int64(100 * (1 - float64(dRej)/float64(dReq)) * (1 - float64(dErr)/float64(dReq)))
			if w < 1 {
				w = 1
			}
		}
		n.weight.Store(w)
	}
}

// verify dials n and checks that it serves every model its spec places,
// returning the open connection; a failure wraps ErrManifestMismatch.
// Startup and rejoin both pass through it.
func (r *Router) verify(n *node) (*serving.Client, error) {
	cl, err := serving.Dial(r.container, n.spec.Addr, n.spec.ServerName)
	if err != nil {
		return nil, fmt.Errorf("%w: node %q unreachable at %s: %v",
			ErrManifestMismatch, n.spec.Name, n.spec.Addr, err)
	}
	served, err := cl.Models()
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("%w: node %q did not answer the model listing: %v",
			ErrManifestMismatch, n.spec.Name, err)
	}
	for _, want := range n.spec.Models {
		if !slices.Contains(served, want) {
			cl.Close()
			return nil, fmt.Errorf("%w: node %q does not serve model %q (serves: %s)",
				ErrManifestMismatch, n.spec.Name, want, strings.Join(served, ", "))
		}
	}
	return cl, nil
}

// probe re-verifies a dead node and, if its declared placement is
// intact, revives it at minimum weight.
func (r *Router) probe(n *node) {
	cl, err := r.verify(n)
	if err != nil {
		return
	}
	r.putConn(n, cl)
	n.weight.Store(1)
	n.dead.Store(false)
}

// TickHealth forces a health tick regardless of the vtime period — a
// deterministic hook for tests and operators (probe dead nodes now).
func (r *Router) TickHealth() {
	r.tickMu.Lock()
	r.lastTick = r.clock.Now() - tickEvery
	r.tickMu.Unlock()
	r.maybeTick()
}

// closePools closes every pooled backend connection.
func (r *Router) closePools() {
	for _, n := range r.nodes {
		n.mu.Lock()
		for _, cl := range n.free {
			cl.Close()
		}
		n.free = nil
		n.mu.Unlock()
	}
}

// Close stops the router: no new connections, live client connections
// closed, handlers drained, backend pools released.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.closeErr = r.srv.Close()
		r.closePools()
	})
	return r.closeErr
}
