package serving

import (
	"fmt"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/tflite"
)

// pool is a resizable set of interpreter replicas for one model version.
// A tflite.Interpreter is not safe for concurrent Invoke, so each replica
// is checked out exclusively per batch; N replicas let N batches run
// concurrently on the container's device. Every replica registers its own
// weight residency (namespaced by instance ID), so replica count shows up
// as enclave memory pressure exactly like the paper's scale-up runs — and
// evicting an idle pool (resize to zero) releases that residency, the
// keep-the-enclave-resident-set-small discipline TensorSCONE argues for.
//
// The autoscaler resizes pools live. Growth is lazy: acquire creates a
// replica on demand while the live count is below target, so a pool
// scaled to zero repopulates on the next batch that reaches it (and a
// batch in flight when the target drops to zero can still run — total 0
// always permits one lazy creation, keeping eviction deadlock-free).
// Shrinking is graceful: surplus idle replicas are closed immediately and
// checked-out ones are closed as they release.
type pool struct {
	container *core.Container
	model     *tflite.Model
	instance  string
	threads   int

	mu     sync.Mutex
	cond   *sync.Cond
	free   []*tflite.Interpreter
	total  int // live replicas: free + checked out
	target int // desired size; 0 = scaled to zero (evicted when idle)
	next   int // next replica instance id, never reused
	closed bool

	// Replica-time accounting: the integral of the live replica count
	// over virtual time, the denominator of the autoscaler's efficiency
	// story (serve the same load with fewer replica-seconds).
	lastAt    time.Duration
	replicaVT float64 // replica-seconds, virtual
}

// newPool loads replicas interpreters for model bound to the container's
// device. Creation is eager here so Register reports interpreter failures
// up front; later growth via resize/acquire is lazy.
func newPool(c *core.Container, model *tflite.Model, instance string, replicas, threads int) (*pool, error) {
	if replicas < 1 {
		replicas = 1
	}
	p := &pool{
		container: c,
		model:     model,
		instance:  instance,
		threads:   threads,
		target:    replicas,
		lastAt:    c.Clock().Now(),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < replicas; i++ {
		ip, err := p.newReplica(i)
		if err != nil {
			p.close()
			return nil, err
		}
		p.free = append(p.free, ip)
		p.total++
		p.next = i + 1
	}
	return p, nil
}

// newReplica creates and allocates one interpreter replica.
func (p *pool) newReplica(id int) (*tflite.Interpreter, error) {
	ip, err := tflite.NewInterpreter(p.model,
		tflite.WithDevice(p.container.Device(p.threads)),
		tflite.WithInstanceID(fmt.Sprintf("%s/r%d", p.instance, id)))
	if err != nil {
		return nil, fmt.Errorf("serving: replica %d: %w", id, err)
	}
	if err := ip.AllocateTensors(); err != nil {
		ip.Close()
		return nil, fmt.Errorf("serving: allocate replica %d: %w", id, err)
	}
	return ip, nil
}

// acquire checks out a replica: a free one if available, a lazily created
// one while the pool is below target (or empty — the scale-from-zero
// path), otherwise it blocks until a running batch releases one.
func (p *pool) acquire() (*tflite.Interpreter, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("serving: pool %s is closed", p.instance)
		}
		if n := len(p.free); n > 0 {
			ip := p.free[n-1]
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return ip, nil
		}
		if p.total < p.target || p.total == 0 {
			p.accountLocked()
			p.total++
			id := p.next
			p.next++
			p.mu.Unlock()
			ip, err := p.newReplica(id)
			if err != nil {
				p.mu.Lock()
				p.accountLocked()
				p.total--
				p.cond.Broadcast()
				p.mu.Unlock()
				return nil, err
			}
			return ip, nil
		}
		p.cond.Wait()
	}
}

// release returns a replica to the pool — or retires it when the pool has
// shrunk below the live count since it was checked out.
func (p *pool) release(ip *tflite.Interpreter) {
	p.mu.Lock()
	if p.closed || p.total > p.target {
		p.accountLocked()
		p.total--
		p.cond.Broadcast()
		p.mu.Unlock()
		ip.Close()
		return
	}
	p.free = append(p.free, ip)
	p.cond.Signal()
	p.mu.Unlock()
}

// resize sets the pool's target size. Surplus idle replicas are closed
// now; checked-out surplus retires on release; growth happens lazily in
// acquire. resize(0) evicts the pool once its batches drain.
func (p *pool) resize(target int) {
	if target < 0 {
		target = 0
	}
	if target > maxReplicas {
		target = maxReplicas
	}
	var retired []*tflite.Interpreter
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.accountLocked()
	p.target = target
	for p.total > target && len(p.free) > 0 {
		n := len(p.free)
		retired = append(retired, p.free[n-1])
		p.free = p.free[:n-1]
		p.total--
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, ip := range retired {
		ip.Close()
	}
}

// size reports the live replica count (free + checked out).
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

// replicaSeconds reports the accumulated virtual replica-seconds.
func (p *pool) replicaSeconds() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.accountLocked()
	return p.replicaVT
}

// accountLocked folds the elapsed virtual time at the current replica
// count into the replica-seconds integral. Callers hold p.mu and call it
// before every change to total.
func (p *pool) accountLocked() {
	now := p.container.Clock().Now()
	if now > p.lastAt {
		p.replicaVT += float64(float64(p.total) * (now - p.lastAt).Seconds()) // rounded before the sum on every GOARCH
	}
	p.lastAt = now
}

// close releases every replica's device registrations and fails pending
// and future acquires. The caller must guarantee no replica is checked
// out.
func (p *pool) close() {
	p.mu.Lock()
	p.accountLocked()
	p.closed = true
	free := p.free
	p.free = nil
	p.total -= len(free)
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, ip := range free {
		ip.Close()
	}
}
