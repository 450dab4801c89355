// Package analysis compiles the framework's prose invariants into
// machine-checked static analyses, in the style of
// golang.org/x/tools/go/analysis but self-contained on the standard
// library (the module is dependency-free by policy, so the x/tools
// driver cannot be vendored in).
//
// Five analyzers enforce the properties doc.go promises:
//
//   - nowallclock: no ambient wall clock in vtime-accounted packages
//   - detrand:     no global math/rand in deterministic-trajectory code
//   - shieldedfs:  no direct os file I/O outside the FS shield
//   - rawnet:      no raw net/tls conns or listeners in enclave code
//   - wirealloc:   no attacker-sized allocations in wire decoders
//
// A finding is suppressed by an annotated directive on the offending
// line (or the line above it):
//
//	//securetf:allow <analyzer> <reason>
//
// The reason is mandatory: a suppression is a reviewed claim that the
// site is safe, and the claim must be stated. Malformed directives
// (unknown analyzer, missing reason) are themselves diagnostics.
//
// One driver runs the analyzers: cmd/securetf-vet speaks the
// `go vet -vettool=` unitchecker protocol (RunUnit), so the suite is an
// ordinary vet pass over every compilation unit, test files included.
// Given package patterns, securetf-vet runs that same go vet pass.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, command-line
	// selection flags and //securetf:allow directives.
	Name string
	// Doc is the help text; the first line is the summary.
	Doc string
	// Run inspects one type-checked package and reports findings.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the module path of the code under analysis, or "" when
	// unknown (fixtures); package scoping treats "" as in-module.
	Module string

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	as := []*Analyzer{
		NoWallClock,
		DetRand,
		ShieldedFS,
		RawNet,
		WireAlloc,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// ByName resolves an analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackage applies the analyzers to one type-checked package,
// drops diagnostics in _test.go files (the invariants bind production
// code; tests freely fake wall clocks or raw sockets), applies
// //securetf:allow suppressions, and appends a
// diagnostic for every malformed directive. The returned slice is
// sorted by position.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, module string, analyzers []*Analyzer) ([]Diagnostic, error) {
	// Directives are validated against the full suite, not the enabled
	// subset: running one analyzer must not misreport another's
	// legitimate suppressions as unknown names.
	dirs := collectDirectives(fset, files, All())
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Module:    module,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range pass.diags {
			position := fset.Position(d.Pos)
			if strings.HasSuffix(position.Filename, "_test.go") {
				continue
			}
			if dirs.suppresses(a.Name, position) {
				continue
			}
			out = append(out, d)
		}
	}
	out = append(out, dirs.malformed...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// inScope reports whether a package path has any of the given path
// segments. Scoping is segment-based so that test fixtures (package
// path "fixture/dist") and the real tree
// ("github.com/securetf/securetf/internal/tf/dist") are classified by
// the same rule.
func inScope(pkgPath string, segments ...string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		for _, want := range segments {
			if seg == want {
				return true
			}
		}
	}
	return false
}

// inModule reports whether pkgPath belongs to the module under
// analysis. An empty module (fixtures, ad-hoc runs) counts as inside.
func inModule(pkgPath, module string) bool {
	return module == "" || pkgPath == module || strings.HasPrefix(pkgPath, module+"/")
}

// fileBase returns the basename of the file containing pos.
func fileBase(fset *token.FileSet, pos token.Pos) string {
	return path.Base(fset.Position(pos).Filename)
}

// usedObject resolves an identifier (possibly the Sel of a selector)
// to the object it uses, or nil.
func usedObject(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name (methods have receivers and do not match).
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}
