package sgx

import (
	"crypto/ecdsa"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/vtime"
)

// Platform models one SGX-capable machine: a shared EPC, a platform
// attestation key (the quoting enclave's key, fused per CPU in real SGX),
// and a root sealing secret. All enclaves created on a platform share its
// EPC and virtual clock.
type Platform struct {
	name   string
	params *Params // held apart from mu and resident, which every Access writes
	clock  *vtime.Clock

	quoteKey   *seccrypto.SigningKey
	sealSecret [32]byte

	mu       sync.Mutex
	enclaves map[uint64]*Enclave
	nextID   uint64
	resident int64 // total enclave-resident bytes on this platform

	counters map[counterKey]uint64
}

// counterKey scopes a monotonic counter to an enclave identity, mirroring
// SGX monotonic counters that survive enclave restarts on a platform.
type counterKey struct {
	owner Measurement
	name  string
}

// ErrEPCExhausted reports that an enclave creation would exceed total EPC
// plus the swap allowance. Real SGX can overcommit via paging, so creation
// only fails beyond a generous multiple of the EPC.
var ErrEPCExhausted = errors.New("sgx: enclave memory limit exceeded")

// maxOvercommit is how many times the EPC may be oversubscribed before
// enclave creation fails outright.
const maxOvercommit = 64

// NewPlatform creates a platform with the given name and parameters,
// generating fresh platform keys.
func NewPlatform(name string, params Params) (*Platform, error) {
	qk, err := seccrypto.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("sgx: creating platform %q: %w", name, err)
	}
	p := &Platform{
		name:     name,
		params:   &params,
		clock:    &vtime.Clock{},
		quoteKey: qk,
		enclaves: make(map[uint64]*Enclave),
		counters: make(map[counterKey]uint64),
	}
	if _, err := io.ReadFull(rand.Reader, p.sealSecret[:]); err != nil {
		return nil, fmt.Errorf("sgx: creating platform %q: %w", name, err)
	}
	return p, nil
}

// Name returns the platform name.
func (p *Platform) Name() string { return p.name }

// Params returns the platform's cost-model parameters.
func (p *Platform) Params() Params { return *p.params }

// Clock returns the platform's virtual clock.
func (p *Platform) Clock() *vtime.Clock { return p.clock }

// AttestationKey returns the public half of the platform quoting key.
// Verifiers (CAS, IAS) obtain this out of band, standing in for Intel's
// provisioning infrastructure.
func (p *Platform) AttestationKey() *ecdsa.PublicKey { return p.quoteKey.Public() }

// CreateEnclave loads an image into a new enclave, charging the
// measurement/creation cost. Mode selects HW (full cost model) or SIM.
func (p *Platform) CreateEnclave(img Image, mode Mode) (*Enclave, error) {
	if mode != ModeHW && mode != ModeSIM {
		return nil, fmt.Errorf("sgx: invalid mode %d", int(mode))
	}
	footprint := img.Size() + img.HeapSize
	p.mu.Lock()
	if mode == ModeHW && p.resident+footprint > p.params.EPCSize*maxOvercommit {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %d bytes requested, %d resident", ErrEPCExhausted, footprint, p.resident)
	}
	p.nextID++
	id := p.nextID
	e := &Enclave{
		id:          id,
		platform:    p,
		mode:        mode,
		image:       img,
		measurement: img.Measure(),
		resident:    footprint,
	}
	p.enclaves[id] = e
	if mode == ModeHW {
		p.resident += footprint
	}
	p.mu.Unlock()

	// Creation cost: EADD/EEXTEND measure every page, plus EINIT. In SIM
	// mode loading is an ordinary mmap and costs almost nothing.
	if mode == ModeHW {
		pages := (footprint + p.params.PageSize - 1) / p.params.PageSize
		p.clock.Advance(p.params.EnclaveCreateCost + time.Duration(pages)*perPageAddCost)
	} else {
		p.clock.Advance(p.params.EnclaveCreateCost / 20)
	}
	return e, nil
}

// perPageAddCost approximates EADD+EEXTEND per 4 KiB page.
const perPageAddCost = 2500 * time.Nanosecond

// destroyEnclave releases an enclave's EPC accounting.
func (p *Platform) destroyEnclave(e *Enclave) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.enclaves[e.id]; !ok {
		return
	}
	delete(p.enclaves, e.id)
	if e.mode == ModeHW {
		p.resident -= e.ResidentBytes()
	}
}

// residentTotal returns the total HW-mode resident bytes on the platform.
func (p *Platform) residentTotal() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// adjustResident applies a delta to the platform-wide resident count for a
// HW enclave growing or shrinking its heap.
func (p *Platform) adjustResident(delta int64) {
	p.mu.Lock()
	p.resident += delta
	p.mu.Unlock()
}

// sealKeyFor derives the per-measurement sealing key, mirroring
// EGETKEY(SEAL) policy MRENCLAVE: same platform + same enclave identity
// derive the same key; anything else derives garbage.
func (p *Platform) sealKeyFor(m Measurement) seccrypto.Key {
	return seccrypto.HKDF(append(p.sealSecret[:], m[:]...), "sgx-seal-v1", p.name)
}

// counterIncrement bumps and returns a monotonic counter owned by the
// given enclave identity. Counters survive enclave restarts but not
// platform replacement, like SGX monotonic counters.
func (p *Platform) counterIncrement(owner Measurement, name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := counterKey{owner: owner, name: name}
	p.counters[k]++
	return p.counters[k]
}

// counterRead returns the current value of a monotonic counter.
func (p *Platform) counterRead(owner Measurement, name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters[counterKey{owner: owner, name: name}]
}

// signQuote signs report bytes with the platform quoting key.
func (p *Platform) signQuote(reportBytes []byte) ([]byte, error) {
	p.clock.Advance(p.params.QuoteSignCost)
	return p.quoteKey.Sign(reportBytes)
}
