package sgx

import (
	"reflect"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/vtime"
)

// priceSite is one place outside this package that used to price a
// charge itself: old is the expression written there, new the charge
// that replaced it.
type priceSite struct {
	at  string
	old func(c *vtime.Clock, p *Params, e *Enclave, n int)
	new func(m Meter, e *Enclave, n int)
}

// replacedPrices are the 26 inline prices the meter replaced, each kept
// verbatim but for its variable names (c the clock, p the params, n the
// quantity or the sender's stamp in nanoseconds).
var replacedPrices = []priceSite{
	{"tf/dist/protocol.go: wireTime",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) {
			c.Advance(TimeAtThroughput(float64(n), p.WireBandwidth))
		},
		func(m Meter, _ *Enclave, n int) { m.Frame(n) }},
	{"tf/dist/protocol.go: Link.Receive",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) { c.AdvanceTo(time.Duration(n) + p.LANRTT/2) },
		func(m Meter, _ *Enclave, n int) { m.Arrive(time.Duration(n)) }},
	{"tf/dist/protocol.go: Link.RoundTrip",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.LANRTT / 2) },
		func(m Meter, _ *Enclave, _ int) { m.Transit() }},

	{"cas/client.go: Bootstrap handshake",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.TLSHandshakeCost + 2*p.LANRTT) },
		func(m Meter, _ *Enclave, _ int) { m.Handshake() }},
	{"cas/client.go: Bootstrap quote check",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.QuoteVerifyCostLocal) },
		func(m Meter, _ *Enclave, _ int) { m.QuoteCheck() }},
	{"cas/client.go: connect",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.TLSHandshakeCost + 2*p.LANRTT) },
		func(m Meter, _ *Enclave, _ int) { m.Handshake() }},
	{"cas/client.go: syncClock",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) { c.AdvanceTo(time.Duration(n) + p.LANRTT/2) },
		func(m Meter, _ *Enclave, n int) { m.Arrive(time.Duration(n)) }},
	{"cas/client.go: Attest initialization",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.AttestInitCost) },
		func(m Meter, _ *Enclave, _ int) { m.AttestInit() }},
	{"cas/client.go: Attest send quote",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.LANRTT / 2) },
		func(m Meter, _ *Enclave, _ int) { m.Transit() }},
	{"cas/client.go: unpack",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.LANRTT / 2) },
		func(m Meter, _ *Enclave, _ int) { m.Transit() }},
	{"cas/server.go: handleConn",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) { c.AdvanceTo(time.Duration(n) + p.LANRTT/2) },
		func(m Meter, _ *Enclave, n int) { m.Arrive(time.Duration(n)) }},
	{"cas/server.go: handleAttest",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.QuoteVerifyCostLocal) },
		func(m Meter, _ *Enclave, _ int) { m.QuoteCheck() }},

	{"cas/ias/ias.go: handle request",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) { c.AdvanceTo(time.Duration(n) + p.LANRTT/2) },
		func(m Meter, _ *Enclave, n int) { m.Arrive(time.Duration(n)) }},
	{"cas/ias/ias.go: handle Intel verification",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.WANRTT + p.QuoteVerifyCostIntel) },
		func(m Meter, _ *Enclave, _ int) { m.IntelQuoteCheck() }},
	{"cas/ias/ias.go: handle keys",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.LANRTT / 2) },
		func(m Meter, _ *Enclave, _ int) { m.Transit() }},
	{"cas/ias/ias.go: Attest initialization",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) {
			c.Advance(p.AttestInitCost + p.TLSHandshakeCost + 2*p.LANRTT)
		},
		func(m Meter, _ *Enclave, _ int) { m.AttestInit(); m.Handshake() }},
	{"cas/ias/ias.go: Attest send quote",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.LANRTT / 2) },
		func(m Meter, _ *Enclave, _ int) { m.Transit() }},
	{"cas/ias/ias.go: Attest confirmation",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) { c.AdvanceTo(time.Duration(n) + p.LANRTT/2) },
		func(m Meter, _ *Enclave, n int) { m.Arrive(time.Duration(n)) }},
	{"cas/ias/ias.go: Attest keys",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) { c.AdvanceTo(time.Duration(n) + p.LANRTT/2) },
		func(m Meter, _ *Enclave, n int) { m.Arrive(time.Duration(n)) }},

	{"shield/netshield/netshield.go: chargeHandshake",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.TLSHandshakeCost + 2*p.LANRTT) },
		func(m Meter, _ *Enclave, _ int) { m.Handshake() }},
	{"shield/netshield/netshield.go: shieldConn.Read",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) {
			if n > 0 {
				c.Advance(p.NetShieldRecordCost + TimeAtThroughput(float64(n), p.NetShieldThroughput))
			}
		},
		func(m Meter, _ *Enclave, n int) { m.Record(n) }},
	{"shield/netshield/netshield.go: shieldConn.Write",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) {
			if n > 0 {
				c.Advance(p.NetShieldRecordCost + TimeAtThroughput(float64(n), p.NetShieldThroughput))
			}
		},
		func(m Meter, _ *Enclave, n int) { m.Record(n) }},

	// The device's libc factor and thread count are its own; musl's
	// factor and a thread count past the physical cores exercise both.
	{"device/device.go: CPU.Compute",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) {
			c.Advance(p.ComputeTime(float64(n)*1.03, 1+n%9))
		},
		func(m Meter, _ *Enclave, n int) { m.Compute(float64(n)*1.03, 1+n%9) }},
	{"device/device.go: CPU.Access",
		func(c *vtime.Clock, p *Params, _ *Enclave, n int) { c.Advance(p.MemTime(float64(n) * 1.03)) },
		func(m Meter, _ *Enclave, n int) { m.Memory(float64(n) * 1.03) }},

	{"scone/scone.go: copyBoundary",
		func(c *vtime.Clock, p *Params, e *Enclave, n int) {
			if n <= 0 {
				return
			}
			if e.Mode() == ModeSIM {
				c.Advance(TimeAtThroughput(float64(n), p.SIMCopyThroughput))
				return
			}
			e.Access(int64(n), AccessStreaming)
		},
		func(_ Meter, e *Enclave, n int) { e.CopyBoundary(n) }},

	{"nativert/nativert.go: Syscall",
		func(c *vtime.Clock, p *Params, _ *Enclave, _ int) { c.Advance(p.NativeSyscallCost) },
		func(m Meter, _ *Enclave, _ int) { m.NativeSyscall() }},
}

// scaledParams is DefaultParams with every time, throughput, bandwidth
// and factor field ×1.25, so a price that reads the wrong field or rounds
// in another place cannot hide behind a coincidence of the defaults.
func scaledParams() Params {
	p := DefaultParams()
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() * 1.25)
		case reflect.Int64:
			if f.Type() == reflect.TypeOf(time.Duration(0)) {
				f.SetInt(f.Int() + f.Int()/4)
			}
		}
	}
	return p
}

// TestPricesMatchWhatTheyReplaced: every charge the meter and
// CopyBoundary make is, to the nanosecond, the one the inline expression
// they replaced made, under the default prices and under prices that
// are all a quarter higher, for quantities from nothing to a 1.6 MB
// model, on fresh clocks in both enclave modes.
func TestPricesMatchWhatTheyReplaced(t *testing.T) {
	if len(replacedPrices) != 26 {
		t.Fatalf("%d replaced prices listed, want the 26 sites", len(replacedPrices))
	}
	fresh := func(params Params, mode Mode) *Enclave {
		t.Helper()
		platform, err := NewPlatform("price-check", params)
		if err != nil {
			t.Fatal(err)
		}
		e, err := platform.CreateEnclave(SyntheticImage("app", 1<<20, 1<<20), mode)
		if err != nil {
			t.Fatal(err)
		}
		platform.Clock().Reset() // a sender's stamp must be ahead of the receiver
		return e
	}
	for _, params := range []Params{DefaultParams(), scaledParams()} {
		for _, mode := range []Mode{ModeHW, ModeSIM} {
			for _, site := range replacedPrices {
				for _, n := range []int{0, 1, 7, 4097, 65537, 1_600_001} {
					was, is := fresh(params, mode), fresh(params, mode)
					site.old(was.Clock(), was.platform.params, was, n)
					site.new(is.platform.Meter(), is, n)
					if got, want := is.Clock().Now(), was.Clock().Now(); got != want {
						t.Errorf("%s, %v, n=%d, LANRTT %v: charged to %d ns, the replaced expression to %d",
							site.at, mode, n, params.LANRTT, got, want)
					}
				}
			}
		}
	}
}

// TestMeterOnKeepsPrices: a branch meter charges its own clock at the
// prices it was made from.
func TestMeterOnKeepsPrices(t *testing.T) {
	base := NewMeter(&vtime.Clock{}, scaledParams())
	var branch vtime.Clock
	base.On(&branch).Handshake()
	if base.Clock().Now() != 0 {
		t.Fatalf("the base clock moved to %v", base.Clock().Now())
	}
	if p := scaledParams(); branch.Now() != p.TLSHandshakeCost+2*p.LANRTT {
		t.Fatalf("the branch was charged %v at the scaled prices", branch.Now())
	}
}
