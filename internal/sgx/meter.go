package sgx

import (
	"time"

	"github.com/securetf/securetf/internal/vtime"
)

// Meter charges a clock at one platform's prices: code outside an
// enclave charges it a quantity and reads no cost field, so Params
// becomes time in this package only. It is two pointers, passed by
// value; the zero Meter has no clock, and a config treats it as unset.
type Meter struct {
	clock  *vtime.Clock
	params *Params
}

// NewMeter charges clock at params' prices.
func NewMeter(clock *vtime.Clock, params Params) Meter { return Meter{clock, &params} }

// Meter charges the platform's clock at the platform's prices.
func (p *Platform) Meter() Meter { return Meter{p.clock, p.params} }

// Clock returns the clock the meter charges.
func (m Meter) Clock() *vtime.Clock { return m.clock }

// On returns a meter at the same prices on another clock (a fan-out branch).
func (m Meter) On(clock *vtime.Clock) Meter { return Meter{clock, m.params} }

// Params returns a copy of the prices.
func (m Meter) Params() Params { return *m.params }

// FrameTime prices putting an n-byte frame on the cluster network.
func (m Meter) FrameTime(n int) time.Duration {
	return TimeAtThroughput(float64(n), m.params.WireBandwidth)
}

// Frame charges the sender an n-byte frame's serialization; Transit or
// Arrive charges its propagation, once.
func (m Meter) Frame(n int) { m.clock.Advance(m.FrameTime(n)) }

// Transit charges half a LAN round trip, a message in flight.
func (m Meter) Transit() { m.clock.Advance(m.params.LANRTT / 2) }

// Arrive moves the clock to when a message stamped sent reaches this
// node, unless it is already past that.
func (m Meter) Arrive(sent time.Duration) { m.clock.AdvanceTo(m.Arrival(sent)) }

// Arrival is when a message stamped sent reaches its peer: half a LAN
// round trip later.
func (m Meter) Arrival(sent time.Duration) time.Duration { return sent + m.params.LANRTT/2 }

// Handshake charges a TLS 1.3 handshake's CPU and its two round trips
// (TCP connect, TLS).
func (m Meter) Handshake() { m.clock.Advance(m.params.TLSHandshakeCost + 2*m.params.LANRTT) }

// Record charges the network shield's processing of one n-byte read or
// write of TLS records: a cost per call plus a throughput term. A frame
// is sent in one write, so a sender pays one per frame; a receiver reads
// a frame's header and its payload in two calls and pays two.
func (m Meter) Record(n int) {
	if n > 0 {
		m.clock.Advance(m.params.NetShieldRecordCost + TimeAtThroughput(float64(n), m.params.NetShieldThroughput))
	}
}

// AttestInit charges the client-side setup of an attestation round.
func (m Meter) AttestInit() { m.clock.Advance(m.params.AttestInitCost) }

// QuoteCheck charges verifying a quote locally, as the CAS does (DCAP).
func (m Meter) QuoteCheck() { m.clock.Advance(m.params.QuoteVerifyCostLocal) }

// IntelQuoteCheck charges Intel's verification of a quote: one WAN round
// trip and the attestation service's processing.
func (m Meter) IntelQuoteCheck() { m.clock.Advance(m.params.WANRTT + m.params.QuoteVerifyCostIntel) }

// NativeSyscall charges an ordinary kernel crossing outside any enclave.
func (m Meter) NativeSyscall() { m.clock.Advance(m.params.NativeSyscallCost) }

// Compute charges untrusted FLOPs run on contexts execution contexts.
func (m Meter) Compute(flops float64, contexts int) {
	m.clock.Advance(m.params.ComputeTime(flops, contexts))
}

// Memory charges bytes of untrusted memory traffic.
func (m Meter) Memory(bytes float64) { m.clock.Advance(m.params.MemTime(bytes)) }
