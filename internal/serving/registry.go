package serving

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/tflite"
)

// registry is the versioned model table of the gateway: model name →
// versions, each with its own interpreter pool, plus the one version
// unpinned requests resolve to.
type registry struct {
	mu     sync.Mutex
	models map[string]*servedModel
	// closed is set by Close under mu before it waits on the
	// dispatchers, so Register's dispatcher spawn (also under mu) can
	// never race dispatchWG.Add against dispatchWG.Wait.
	closed bool
}

// servedModel is one named model with its versions, admission queue and
// dispatcher state.
//
// The admission queue channel is allocated at maxQueueCap once; the live
// bound is the model's QueueCap, enforced at admission against the
// pending counter, so SetQueueCap can move it without swapping channels
// under concurrent producers. The dispatcher's in-flight batch bound is
// likewise a resizable semaphore: tokens is pre-filled to the live slot
// limit, claims receive a token, releases return one — or burn one
// against debt when the limit has been lowered.
type servedModel struct {
	name     string
	queue    chan *request
	pending  atomic.Int64  // admitted requests not yet pulled by the dispatcher
	tokens   chan struct{} // in-flight batch slots; receive to claim
	debt     atomic.Int64  // slot tokens to absorb instead of returning
	gate     chan struct{} // test hook: when set, dispatch waits on it
	rejected atomic.Int64
	arrivals atomic.Int64 // admitted + rejected, the autoscaler's traffic signal
	parked   atomic.Bool  // scaled to zero; wake fast path

	canary atomic.Pointer[canaryRun] // active canary, nil when none

	mu        sync.Mutex
	versions  map[int]*modelVersion
	serving   int
	slotLimit int         // live in-flight batch bound (under mu)
	lastRun   CanaryState // latest decided canary, zero when none yet
	scale     scaleState  // autoscaler state (under mu)
}

// modelVersion is one loaded version: its interpreter pool and counters.
type modelVersion struct {
	pool     *pool
	inflight sync.WaitGroup
	served   atomic.Int64
	batches  atomic.Int64
	errors   atomic.Int64
	lat      latencySampler
}

// admit reserves a queue position against the live cap and enqueues the
// request. It reports false — without enqueueing — when the queue is at
// capacity.
func (m *servedModel) admit(req *request, queueCap int) bool {
	for {
		n := m.pending.Load()
		if n >= int64(queueCap) {
			return false
		}
		if m.pending.CompareAndSwap(n, n+1) {
			break
		}
	}
	// pending bounds occupancy at maxQueueCap, the channel's capacity,
	// so this send never blocks.
	m.queue <- req
	return true
}

// releaseSlot returns an in-flight batch token, or burns it against the
// resize debt when the slot limit has been lowered.
func (m *servedModel) releaseSlot() {
	for {
		d := m.debt.Load()
		if d <= 0 {
			break
		}
		if m.debt.CompareAndSwap(d, d-1) {
			return
		}
	}
	m.tokens <- struct{}{}
}

// setSlotLimitLocked moves the live in-flight batch bound to n. Raising
// it first cancels outstanding debt, then mints tokens; lowering it
// absorbs free tokens now and leaves the remainder as debt for running
// batches to burn on release. Callers hold m.mu.
func (m *servedModel) setSlotLimitLocked(n int) {
	if n < 1 {
		n = 1
	}
	if n > maxReplicas {
		n = maxReplicas
	}
	delta := n - m.slotLimit
	m.slotLimit = n
	for delta > 0 {
		if d := m.debt.Load(); d > 0 && m.debt.CompareAndSwap(d, d-1) {
			delta--
			continue
		}
		m.tokens <- struct{}{}
		delta--
	}
	for delta < 0 {
		select {
		case <-m.tokens:
		default:
			m.debt.Add(1)
		}
		delta++
	}
}

// Register loads a model under name@version and makes it available for
// pinned requests. The first version registered for a name becomes the
// serving version; later ones go live only through SetServing (atomic
// hot-swap) or a canary promotion. Pool size and device threads are the
// gateway's Config.Replicas and Threads, until the autoscaler moves the
// replica count. Registering an existing name@version fails.
func (g *Gateway) Register(name string, version int, model *tflite.Model) error {
	if name == "" || len(name) > maxModelName {
		return fmt.Errorf("serving: invalid model name %q", name)
	}
	if version < 1 {
		return fmt.Errorf("serving: model version must be >= 1, got %d", version)
	}
	if model == nil {
		return fmt.Errorf("serving: nil model")
	}
	select {
	case <-g.closed:
		return fmt.Errorf("serving: gateway is closed")
	default:
	}
	p, err := newPool(g.container, model, fmt.Sprintf("serving/%s@%d", name, version), g.cfg.Replicas, g.cfg.Threads)
	if err != nil {
		return err
	}

	g.reg.mu.Lock()
	if g.reg.closed {
		g.reg.mu.Unlock()
		p.close()
		return fmt.Errorf("serving: gateway is closed")
	}
	m, ok := g.reg.models[name]
	if !ok {
		m = &servedModel{
			name:     name,
			queue:    make(chan *request, maxQueueCap),
			tokens:   make(chan struct{}, maxReplicas),
			gate:     g.cfg.gate,
			versions: make(map[int]*modelVersion),
		}
		m.mu.Lock()
		g.setReplicasLocked(m, g.cfg.Replicas)
		m.mu.Unlock()
		g.reg.models[name] = m
		g.dispatchWG.Add(1)
		go g.dispatch(m)
	}
	g.reg.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	// Re-check under the model lock: Close clears version tables under
	// it, so a Register racing a concurrent Close either lands before
	// (and Close releases the pool) or observes closed here and bails.
	select {
	case <-g.closed:
		p.close()
		return fmt.Errorf("serving: gateway is closed")
	default:
	}
	if _, dup := m.versions[version]; dup {
		p.close()
		return fmt.Errorf("serving: model %s@%d already registered", name, version)
	}
	// A model the autoscaler has parked at zero keeps new versions
	// parked too, until traffic wakes it.
	if g.scaler != nil && m.scale.replicas == 0 {
		p.resize(0)
	}
	m.versions[version] = &modelVersion{pool: p}
	if m.serving == 0 {
		m.serving = version
	}
	return nil
}

// LoadModel reads a marshalled Lite model from path through the
// container's file-system view and registers it as name@version. Under a
// provisioned container the path goes through the file-system shield, so
// the model bytes are decrypted, integrity-checked and freshness-audited
// with the CAS-provisioned volume key — the attested provisioning path of
// the paper's §4.2 deployment.
func (g *Gateway) LoadModel(name string, version int, path string) error {
	blob, err := fsapi.ReadFile(g.container.FS(), path)
	if err != nil {
		return fmt.Errorf("serving: load %s@%d from %q: %w", name, version, path, err)
	}
	model, err := tflite.Unmarshal(blob)
	if err != nil {
		return fmt.Errorf("serving: parse %s@%d from %q: %w", name, version, path, err)
	}
	return g.Register(name, version, model)
}

// SetServing atomically switches the version unpinned requests resolve
// to. In-flight work keeps the version it resolved at dispatch, so a swap
// under load drops no requests; the previous version stays registered
// (for pinned clients and rollback) until RemoveVersion. Switching away
// from an active canary's incumbent or candidate aborts the canary.
func (g *Gateway) SetServing(name string, version int) error {
	m := g.lookup(name)
	if m == nil {
		return fmt.Errorf("serving: unknown model %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.versions[version]; !ok {
		return fmt.Errorf("serving: model %s has no version %d", name, version)
	}
	m.serving = version
	if c := m.canary.Load(); c != nil && version != c.incumbent {
		m.abortCanaryLocked(c, fmt.Sprintf("SetServing moved traffic to version %d", version))
	}
	return nil
}

// RemoveVersion unregisters name@version, waits for its in-flight batches
// to finish and releases its interpreter pool. The serving version and an
// active canary candidate cannot be removed.
func (g *Gateway) RemoveVersion(name string, version int) error {
	m := g.lookup(name)
	if m == nil {
		return fmt.Errorf("serving: unknown model %q", name)
	}
	m.mu.Lock()
	v, ok := m.versions[version]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("serving: model %s has no version %d", name, version)
	}
	if version == m.serving {
		m.mu.Unlock()
		return fmt.Errorf("serving: model %s@%d is the serving version; SetServing another first", name, version)
	}
	if c := m.canary.Load(); c != nil && version == c.candidate {
		m.mu.Unlock()
		return fmt.Errorf("serving: model %s@%d is the canary candidate; wait for the verdict or SetServing away", name, version)
	}
	delete(m.versions, version)
	m.mu.Unlock()
	// New work can no longer resolve to v; wait out what already did.
	v.inflight.Wait()
	v.pool.close()
	return nil
}

// ServingVersion reports the version unpinned requests for name currently
// resolve to (0 if the model is unknown).
func (g *Gateway) ServingVersion(name string) int {
	m := g.lookup(name)
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.serving
}

// Models lists the registered model names, sorted.
func (g *Gateway) Models() []string {
	g.reg.mu.Lock()
	defer g.reg.mu.Unlock()
	names := make([]string, 0, len(g.reg.models))
	for name := range g.reg.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookup finds a served model by name.
func (g *Gateway) lookup(name string) *servedModel {
	g.reg.mu.Lock()
	defer g.reg.mu.Unlock()
	return g.reg.models[name]
}

// ReplicaSeconds reports the model's accumulated virtual replica-seconds
// across all versions — the integral of live interpreter-replica count
// over virtual time, the autoscaler's efficiency denominator.
func (g *Gateway) ReplicaSeconds(name string) float64 {
	m := g.lookup(name)
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var total float64
	for _, v := range m.versions {
		total += v.pool.replicaSeconds()
	}
	return total
}

// acquire resolves a requested version (0 = serving) to a live version
// entry and marks one unit of in-flight work on it, so RemoveVersion
// cannot release the pool underneath a running batch.
func (m *servedModel) acquire(version int) (*modelVersion, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if version == 0 {
		version = m.serving
	}
	v := m.versions[version]
	if v == nil {
		return nil, version
	}
	v.inflight.Add(1)
	return v, version
}
