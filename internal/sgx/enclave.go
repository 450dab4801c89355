package sgx

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securetf/securetf/internal/vtime"
)

// Enclave is one loaded enclave instance. It tracks its resident memory
// segments against the platform EPC and charges virtual time for enclave
// transitions, memory traffic and paging according to its Mode.
//
// Enclave is safe for concurrent use.
type Enclave struct {
	id          uint64
	platform    *Platform
	mode        Mode
	image       Image
	measurement Measurement

	mu        sync.Mutex
	destroyed bool
	resident  int64 // bytes resident in this enclave (binary+heap+segments)
	readOnly  int64 // read-only portion of resident (code, streamed weights)
	segments  map[string]segment

	stats Stats
}

// segment is one named long-lived allocation.
type segment struct {
	bytes    int64
	readOnly bool
}

// Stats aggregates the cost-relevant events of an enclave's lifetime.
// Counters are cumulative and safe to read concurrently via Stats().
type Stats struct {
	Transitions   atomic.Int64 // enclave enter/exit round trips
	AsyncSyscalls atomic.Int64 // syscalls served by the async queue
	PageFaults    atomic.Int64 // EPC page-in events charged
	BytesAccessed atomic.Int64 // memory traffic charged through Access
	ComputeFLOPs  atomic.Int64 // analytic FLOPs charged through Compute
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Transitions   int64
	AsyncSyscalls int64
	PageFaults    int64
	BytesAccessed int64
	ComputeFLOPs  int64
}

// Mode returns the enclave's execution mode.
func (e *Enclave) Mode() Mode { return e.mode }

// Measurement returns the enclave's MRENCLAVE-equivalent identity.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Platform returns the owning platform.
func (e *Enclave) Platform() *Platform { return e.platform }

// Clock returns the platform virtual clock.
func (e *Enclave) Clock() *vtime.Clock { return e.platform.clock }

// Image returns the image the enclave was created from.
func (e *Enclave) Image() Image { return e.image }

// Stats returns a snapshot of the enclave's cumulative cost counters.
func (e *Enclave) Stats() StatsSnapshot {
	return StatsSnapshot{
		Transitions:   e.stats.Transitions.Load(),
		AsyncSyscalls: e.stats.AsyncSyscalls.Load(),
		PageFaults:    e.stats.PageFaults.Load(),
		BytesAccessed: e.stats.BytesAccessed.Load(),
		ComputeFLOPs:  e.stats.ComputeFLOPs.Load(),
	}
}

// Destroy tears the enclave down and releases its EPC accounting. Using a
// destroyed enclave is a programming error and returns ErrDestroyed from
// operations that can fail.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return
	}
	e.destroyed = true
	e.mu.Unlock()
	e.platform.destroyEnclave(e)
}

// ResidentBytes reports the enclave's current resident footprint.
func (e *Enclave) ResidentBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resident
}

// Alloc registers a named writable long-lived allocation (arenas,
// variables, per-thread state) against the enclave's resident set.
// Allocating the same name again replaces the previous size.
func (e *Enclave) Alloc(name string, bytes int64) {
	e.alloc(name, bytes, false)
}

// AllocReadOnly registers a read-only allocation (streamed model
// weights). Read-only pages are cheap to evict under EPC pressure — no
// write-back — which is the mechanism behind TensorFlow Lite's graceful
// degradation in the paper's Figure 5.
func (e *Enclave) AllocReadOnly(name string, bytes int64) {
	e.alloc(name, bytes, true)
}

func (e *Enclave) alloc(name string, bytes int64, readOnly bool) {
	if bytes < 0 {
		bytes = 0
	}
	e.mu.Lock()
	if e.segments == nil {
		e.segments = make(map[string]segment)
	}
	prev := e.segments[name]
	e.segments[name] = segment{bytes: bytes, readOnly: readOnly}
	e.resident += bytes - prev.bytes
	if prev.readOnly {
		e.readOnly -= prev.bytes
	}
	if readOnly {
		e.readOnly += bytes
	}
	mode := e.mode
	e.mu.Unlock()
	if mode == ModeHW {
		e.platform.adjustResident(bytes - prev.bytes)
	}
}

// Free releases a named allocation.
func (e *Enclave) Free(name string) {
	e.mu.Lock()
	prev, ok := e.segments[name]
	if ok {
		delete(e.segments, name)
		e.resident -= prev.bytes
		if prev.readOnly {
			e.readOnly -= prev.bytes
		}
	}
	mode := e.mode
	e.mu.Unlock()
	if ok && mode == ModeHW {
		e.platform.adjustResident(-prev.bytes)
	}
}

// dirtyFraction estimates the writable share of the resident set.
func (e *Enclave) dirtyFraction() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.resident <= 0 {
		return 0
	}
	dirty := e.resident - e.readOnly - e.image.Size() // code pages are clean
	if dirty < 0 {
		dirty = 0
	}
	return float64(dirty) / float64(e.resident)
}

// Transition charges one enclave round trip (ECALL/OCALL pair). In SIM
// mode transitions are ordinary function calls and cost nothing.
func (e *Enclave) Transition() {
	e.stats.Transitions.Add(1)
	if e.mode == ModeHW {
		e.platform.clock.Advance(e.platform.params.TransitionCost)
	}
}

// AsyncSyscall charges one asynchronous syscall submission: the request is
// placed on a shared-memory queue and serviced outside the enclave without
// a transition (SCONE's exit-less syscall mechanism).
func (e *Enclave) AsyncSyscall() {
	e.stats.AsyncSyscalls.Add(1)
	e.platform.clock.Advance(e.platform.params.AsyncSyscallCost)
}

// pressure returns workingSet/availableEPC for this enclave, where the
// available EPC discounts what other enclaves on the platform keep
// resident. A value <= 1 means the enclave fits.
func (e *Enclave) pressure() float64 {
	params := e.platform.params
	own := e.ResidentBytes()
	others := e.platform.residentTotal() - own
	avail := params.EPCSize - others
	if avail < params.PageSize {
		avail = params.PageSize
	}
	return float64(own) / float64(avail)
}

// Access charges memory traffic of n bytes with the given access pattern.
// In HW mode, traffic within the EPC pays the MEE bandwidth penalty; once
// the enclave's working set exceeds the available EPC, the excess fraction
// of the traffic additionally pays per-page paging costs — cheap
// sequential page-ins for streaming traffic, expensive thrashing for
// random dirty working sets.
func (e *Enclave) Access(n int64, pattern AccessPattern) {
	if n <= 0 {
		return
	}
	e.stats.BytesAccessed.Add(n)
	params := e.platform.params
	switch e.mode {
	case ModeSIM:
		e.platform.clock.Advance(params.MemTime(float64(n)))
		return
	case ModeHW:
	default:
		return
	}

	// Bandwidth term with MEE penalty.
	d := params.MemTime(float64(n) * params.MEEFactor)

	// Paging term.
	if pr := e.pressure(); pr > 1 {
		excessFrac := 1 - 1/pr // fraction of working set not resident
		faultBytes := float64(n) * excessFrac
		pages := int64(faultBytes / float64(params.PageSize))
		if pages > 0 {
			var perPage time.Duration
			switch pattern {
			case AccessStreaming:
				// Sequential page-ins of read-only data, but each one
				// evicts a victim; evicting a dirty page pays the full
				// EWB path, amplified by pressure as victims are re-
				// faulted.
				dirty := e.dirtyFraction()
				evict := dirty * float64(params.ThrashPageCost) * math.Pow(pr, params.DirtyEvictExponent)
				perPage = params.StreamPageInCost + time.Duration(evict)
			default:
				mult := math.Pow(pr, params.ThrashExponent)
				perPage = time.Duration(float64(params.ThrashPageCost) * mult)
			}
			e.stats.PageFaults.Add(pages)
			d += time.Duration(pages) * perPage
		}
	}
	e.platform.clock.Advance(d)
}

// CopyBoundary charges copying n bytes of syscall data across the
// enclave boundary: streaming traffic in HW mode. The SCONE the paper
// evaluated had a scheduling pathology on the SIM copy path (§5.4, later
// fixed), so SIM mode pays SIMCopyThroughput and counts no access.
func (e *Enclave) CopyBoundary(n int) {
	if n <= 0 {
		return
	}
	if e.mode == ModeSIM {
		e.platform.clock.Advance(TimeAtThroughput(float64(n), e.platform.params.SIMCopyThroughput))
		return
	}
	e.Access(int64(n), AccessStreaming)
}

// CryptoOp charges AES-GCM processing of n bytes at AES-NI throughput.
// Shields use this for their transparent encryption work, which the paper
// notes "can reach a throughput of up to 4 GB/s".
func (e *Enclave) CryptoOp(n int64) {
	if n <= 0 {
		return
	}
	e.platform.clock.Advance(TimeAtThroughput(float64(n), e.platform.params.AESThroughput))
}

// Compute charges analytic compute time for the given FLOPs across the
// given number of execution contexts. HW mode pays the HWComputeFactor:
// the memory encryption engine slows last-level-cache misses, which
// reaches even compute-bound kernels.
func (e *Enclave) Compute(flops int64, contexts int) {
	if flops <= 0 {
		return
	}
	e.stats.ComputeFLOPs.Add(flops)
	d := e.platform.params.ComputeTime(float64(flops), contexts)
	if e.mode == ModeHW && e.platform.params.HWComputeFactor > 1 {
		d = time.Duration(float64(d) * e.platform.params.HWComputeFactor)
	}
	e.platform.clock.Advance(d)
}

// CounterIncrement bumps and returns a platform monotonic counter owned
// by this enclave's identity. Used for rollback protection of persistent
// state (Memoir-style).
func (e *Enclave) CounterIncrement(name string) uint64 {
	return e.platform.counterIncrement(e.measurement, name)
}

// CounterRead returns the current value of a platform monotonic counter
// owned by this enclave's identity.
func (e *Enclave) CounterRead(name string) uint64 {
	return e.platform.counterRead(e.measurement, name)
}

// ErrDestroyed reports use of a destroyed enclave.
var ErrDestroyed = fmt.Errorf("sgx: enclave destroyed")

// checkAlive returns ErrDestroyed when the enclave has been destroyed.
func (e *Enclave) checkAlive() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return ErrDestroyed
	}
	return nil
}
