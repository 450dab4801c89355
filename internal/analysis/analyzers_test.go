package analysis_test

import (
	"testing"

	"github.com/securetf/securetf/internal/analysis"
	"github.com/securetf/securetf/internal/analysis/analysistest"
)

// Each fixture is typechecked under a package path chosen to land in
// (or out of) the analyzer's scope; // want markers pin the expected
// findings, and //securetf:allow sites in the fixtures double as
// suppression coverage.

func TestNoWallClock(t *testing.T) {
	analysistest.Run(t, "testdata/nowallclock", "fixture/dist", analysis.NoWallClock)
}

func TestDetRand(t *testing.T) {
	analysistest.Run(t, "testdata/detrand", "fixture/tf", analysis.DetRand)
}

func TestShieldedFS(t *testing.T) {
	analysistest.Run(t, "testdata/shieldedfs", "fixture/serving/checkpoint", analysis.ShieldedFS)
}

func TestRawNet(t *testing.T) {
	analysistest.Run(t, "testdata/rawnet", "fixture/serving", analysis.RawNet)
}

func TestWireAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/wirealloc", "fixture/dist/codec", analysis.WireAlloc)
}

// TestAllowDirectives runs an analyzer over the malformed-directive
// fixture: bad directives surface as "allow" diagnostics and fail to
// suppress the findings next to them.
func TestAllowDirectives(t *testing.T) {
	analysistest.Run(t, "testdata/allow", "fixture/dist", analysis.NoWallClock)
}

// TestOutOfScope sweeps the whole suite over a host-side package (cmd/
// path segment) doing everything enclave code may not; no analyzer may
// report anything.
func TestOutOfScope(t *testing.T) {
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, "testdata/outofscope", "fixture/cmd/host", a)
		})
	}
}

func TestByName(t *testing.T) {
	for _, a := range analysis.All() {
		if analysis.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if analysis.ByName("frobnicate") != nil {
		t.Error("ByName returned an analyzer for an unknown name")
	}
}
