package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/analysis"
	"github.com/securetf/securetf/internal/sgx"
)

// TestModuleVetClean runs the full suite over the whole module, the
// same pass CI makes: every invariant violation must be fixed or carry
// a reviewed //securetf:allow suppression, so the count is zero.
func TestModuleVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis needs a populated build cache; skipped in -short")
	}
	var buf strings.Builder
	n, err := analysis.RunStandalone("../..", []string{"./..."}, analysis.All(), &buf)
	if err != nil {
		t.Fatalf("standalone run over the module: %v", err)
	}
	if n != 0 {
		t.Fatalf("module is not vet-clean: %d unsuppressed diagnostics\n%s", n, buf.String())
	}
}

// maxAllowDirectives is the ceiling on //securetf:allow suppressions in
// non-test code outside this package — the number ROADMAP asks every
// PR to report. Lower it when a PR removes suppressions; a PR that
// needs to raise it has to say why in review.
const maxAllowDirectives = 11

func TestAllowDirectiveCount(t *testing.T) {
	const root = "../.."
	var sites []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is its own module; dot-directories hold build
			// caches and tooling, not module code.
			skip := path == filepath.Join(root, "internal", "analysis") || path == filepath.Join(root, "bench") ||
				(path != root && strings.HasPrefix(d.Name(), "."))
			if skip {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//securetf:allow ") {
					sites = append(sites, fset.Position(c.Pos()).String())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > maxAllowDirectives {
		t.Fatalf("%d //securetf:allow directives, ceiling is %d:\n%s", len(sites), maxAllowDirectives, strings.Join(sites, "\n"))
	}
}

// TestUnsafeInOneFile: the tensor element codec's copy on little-endian
// targets is the module's one use of unsafe, and every other file,
// tests included, does without it.
func TestUnsafeInOneFile(t *testing.T) {
	const root = "../.."
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (path == filepath.Join(root, "bench") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				rel, _ := filepath.Rel(root, path)
				files = append(files, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "internal/tf/codec_le.go"; len(files) != 1 || files[0] != want {
		t.Fatalf("unsafe is imported by %v, want only %s", files, want)
	}
}

// TestSgxPricesEveryCharge: internal/sgx is the one price list. Outside
// it and bench/, no non-test file reads a time, throughput, bandwidth or
// RTT field of sgx.Params, or converts a quantity into time with the
// Params helpers: code charges an sgx.Meter (or an enclave) a quantity
// and lets sgx price it. The fields come off the struct, so a new price
// is covered the day it is added. Each offending statement is listed once.
func TestSgxPricesEveryCharge(t *testing.T) {
	const root = "../.."
	banned := map[string]bool{"TimeAtThroughput": true, "MemTime": true, "CryptoTime": true, "ComputeTime": true}
	params := reflect.TypeOf(sgx.Params{})
	for i := 0; i < params.NumField(); i++ {
		f := params.Field(i)
		if f.Type == reflect.TypeOf(time.Duration(0)) || strings.Contains(f.Name, "Throughput") ||
			strings.Contains(f.Name, "Bandwidth") || strings.Contains(f.Name, "FLOPS") {
			banned[f.Name] = true
		}
	}
	var sites []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			skip := path == filepath.Join(root, "internal", "sgx") || path == filepath.Join(root, "bench") ||
				d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), "."))
			if skip {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		var stmts []ast.Node
		seen := map[ast.Node]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stmts = stmts[:len(stmts)-1]
				return true
			}
			stmts = append(stmts, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			for i := len(stmts) - 1; i >= 0; i-- {
				if _, ok := stmts[i].(ast.Stmt); ok || i == 0 {
					if !seen[stmts[i]] {
						seen[stmts[i]] = true
						rel, _ := filepath.Rel(root, fset.Position(stmts[i].Pos()).Filename)
						sites = append(sites, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(stmts[i].Pos()).Line))
					}
					break
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > 0 {
		t.Fatalf("%d statements outside internal/sgx price a charge from sgx.Params themselves; charge an sgx.Meter the quantity instead:\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}

// TestFacadeOwnsTheTrainingCluster holds the import direction that lets
// the paper's figures train on the cluster every other client gets, and
// the places where a decision shared by training and federated lives:
// the root package does not depend on internal/experiments; outside
// internal/tf/dist only the facade's dist.go builds a training node;
// the facade's federated.go builds a coordinator in one function and a
// client in one; nothing outside internal/tf/dist frames a message with
// the buffer-per-call Send and Receive; and the gradient-descent update
// is written in one file, the kernel library's.
func TestFacadeOwnsTheTrainingCluster(t *testing.T) {
	goList := func(args ...string) string {
		cmd := exec.Command("go", append([]string{"list"}, args...)...)
		cmd.Dir = "../.."
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return string(out)
	}
	if strings.Contains(goList("-deps", "github.com/securetf/securetf"), "internal/experiments") {
		t.Error("the root package depends on internal/experiments, so the figures cannot call the facade")
	}
	// v -= float32(a*g), the ways it has been written: scalars, the first
	// perhaps a conversion, times a gradient element. Not Momentum's
	// velocity.f32[i] nor Adam's quotient.
	sgdUpdate := regexp.MustCompile(`-= float32\((float32\([\w.]+\)|\w+)( ?\* ?\w+)* ?\* ?\w+(\[\w+\])?\)`)
	var sgdFiles []string
	files := goList("-f", `{{range .GoFiles}}{{$.ImportPath}}/{{.}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}`, "./...")
	for _, line := range strings.Split(strings.TrimSpace(files), "\n") {
		name, path, _ := strings.Cut(line, " ")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if sgdUpdate.MatchString(src) {
			sgdFiles = append(sgdFiles, name)
		}
		if name == "github.com/securetf/securetf/federated.go" {
			for _, ctor := range []string{"federated.NewCoordinator(", "federated.NewClient("} {
				if n := strings.Count(src, ctor); n != 1 {
					t.Errorf("%s calls %s…) %d times: one function maps a config to it, and the others call that one", name, ctor, n)
				}
			}
		}
		if strings.Contains(name, "/internal/tf/dist/") {
			continue
		}
		banned := []string{"dist.Send(", "dist.Receive("}
		if name != "github.com/securetf/securetf/dist.go" {
			banned = append(banned, "dist.NewParameterServer(", "dist.NewWorker(")
		}
		for _, call := range banned {
			if strings.Contains(src, call) {
				t.Errorf("%s calls %s…): build training nodes with StartParameterServer / StartTrainingWorker, and talk through a dist.Link", name, call)
			}
		}
	}
	if want := "github.com/securetf/securetf/internal/tf/kernels/kernels.go"; len(sgdFiles) != 1 || sgdFiles[0] != want {
		t.Errorf("the SGD update v -= float32(a*g) is written in %v, want only %s (kernels.ApplySGD)", sgdFiles, want)
	}
}
