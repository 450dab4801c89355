package analysis

import (
	"go/ast"
	"strings"
)

// wallClockFuncs are the package time functions that read or wait on
// the ambient wall clock. Types (time.Time, time.Duration) and pure
// arithmetic (time.Unix, d.Seconds) are fine — the invariant is about
// *observing* real time, which breaks bit-reproducible vtime
// trajectories and smuggles nondeterminism into figures.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// NoWallClock reports ambient wall-clock access in vtime-accounted
// packages. All time there is charged to the per-platform virtual
// clock (internal/vtime); the handful of genuinely-wall sites —
// reconnect deadlines, accept-loop backoff, chaos-wave watchdogs that
// pace real goroutines — carry //securetf:allow nowallclock
// annotations, and files suffixed _wall.go are allowlisted wholesale
// for code whose entire purpose is wall-side pacing.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc: `no ambient wall clock in vtime-accounted packages

Packages on the virtual clock (tf, dist, federated, serving, core, wire
and the root facade) must not call time.Now, time.Sleep, time.After and
friends: vtime trajectories are bit-reproducible and every latency in
the figures is virtual. Genuinely-wall deadline sites are annotated
with "//securetf:allow nowallclock <reason>"; files named *_wall.go
are exempt.`,
	Run: runNoWallClock,
}

func runNoWallClock(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), "tf", "dist", "federated", "serving", "core", "wire") &&
		!(pass.Module != "" && pass.Pkg.Path() == pass.Module) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := usedObject(pass.TypesInfo, sel.Sel)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			// Package-level functions only: methods like Time.After or
			// Time.Sub are pure arithmetic over already-obtained values.
			if !isPkgFunc(obj, "time", obj.Name()) || !wallClockFuncs[obj.Name()] {
				return true
			}
			if strings.HasSuffix(fileBase(pass.Fset, sel.Pos()), "_wall.go") {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock in a vtime-accounted package; charge the virtual clock instead (or annotate a genuinely-wall deadline with //securetf:allow nowallclock <reason>)", obj.Name())
			return true
		})
	}
	return nil
}
