package analysis_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/sgx"
)

// TestModuleVetClean builds securetf-vet and runs it over the whole
// module as `go vet -vettool`, the same pass CI makes, test files
// included: every invariant violation must be fixed or carry a reviewed
// //securetf:allow suppression.
func TestModuleVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the whole module; skipped in -short")
	}
	tool := filepath.Join(t.TempDir(), "securetf-vet")
	build := exec.Command("go", "build", "-o", tool, "../../cmd/securetf-vet")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build securetf-vet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = "../.."
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("module is not vet-clean: %v\n%s", err, out)
	}
}

// maxAllowDirectives is the ceiling on //securetf:allow suppressions in
// non-test code outside this package — the number ROADMAP asks every
// PR to report. Lower it when a PR removes suppressions; a PR that
// needs to raise it has to say why in review.
const maxAllowDirectives = 4

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

// TestOnlyTheCASIssuesIdentities holds the provisioning rule of the
// paper's §3: secrets come from the CAS, to attested enclaves. So
// outside internal/cas no non-test file mints a certificate authority
// of its own, and outside internal/core (whose Provision keys a
// container's shield with what the CAS released), internal/cas and the
// shield itself no non-test file builds a file-system shield or hands
// one a volume key.
func TestOnlyTheCASIssuesIdentities(t *testing.T) {
	cmd := exec.Command("go", "list", "-f", `{{range .GoFiles}}{{$.ImportPath}}/{{.}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}`, "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	setsVolumeKey := regexp.MustCompile(`VolumeKey\s*:|\.VolumeKey\s*=[^=]`)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, path, _ := strings.Cut(line, " ")
		if strings.Contains(name, "/internal/cas/") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if strings.Contains(src, "seccrypto.NewCA(") {
			t.Errorf("%s calls seccrypto.NewCA(…): a node's TLS identity comes from a CAS session after it attests (Container.Provision)", name)
		}
		if strings.Contains(name, "/internal/core/") || strings.Contains(name, "/internal/shield/fsshield/") {
			continue
		}
		if strings.Contains(src, "fsshield.New(") || setsVolumeKey.MatchString(src) {
			t.Errorf("%s builds a file-system shield or sets its VolumeKey: a container's shield is keyed by Container.Provision, from a CAS session", name)
		}
	}
}

// TestPublicSurface holds the root package's exported surface to the
// checked-in api.txt, so a new option, field or method shows in review
// as a line added there. The surface is read off the type-checked
// package: every exported const, var, func and type, the exported
// fields and methods of each type — of the internal type behind an
// alias too, since that is what a caller can set and call. On a
// mismatch the test prints the lines to add to api.txt (+) and to
// delete from it (-); the file is those lines, sorted.
func TestPublicSurface(t *testing.T) {
	got := publicSurface(t)
	data, err := os.ReadFile("../../api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !slices.IsSorted(want) {
		t.Error("api.txt is not sorted")
	}
	var diff []string
	for _, line := range got {
		if _, found := slices.BinarySearch(want, line); !found {
			diff = append(diff, "+ "+line)
		}
	}
	for _, line := range want {
		if _, found := slices.BinarySearch(got, line); !found {
			diff = append(diff, "- "+line)
		}
	}
	if len(diff) > 0 {
		t.Errorf("the root package's exported surface differs from api.txt:\n%s", strings.Join(diff, "\n"))
	}
}

// publicSurface type-checks the root package against its dependencies'
// export data and lists its exported declarations, one a line, sorted.
func publicSurface(t *testing.T) []string {
	t.Helper()
	goList := func(args ...string) string {
		cmd := exec.Command("go", append([]string{"list"}, args...)...)
		cmd.Dir = "../.."
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.TrimSpace(string(out))
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(goList("-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "."), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range strings.Fields(goList("-f", `{{join .GoFiles " "}}`, ".")) {
		f, err := parser.ParseFile(fset, filepath.Join("../..", name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	pkg, err := conf.Check("github.com/securetf/securetf", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	typ := func(t types.Type) string { return types.TypeString(t, qual) }
	var lines []string
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			lines = append(lines, fmt.Sprintf("const %s %s = %s", name, typ(obj.Type()), obj.Val()))
		case *types.Var:
			lines = append(lines, fmt.Sprintf("var %s %s", name, typ(obj.Type())))
		case *types.Func:
			lines = append(lines, "func "+name+strings.TrimPrefix(typ(obj.Type()), "func"))
		case *types.TypeName:
			head := "type " + name
			under := obj.Type().Underlying()
			if obj.IsAlias() {
				lines = append(lines, head+" = "+typ(types.Unalias(obj.Type())))
			} else {
				kind := typ(under)
				switch under.(type) {
				case *types.Struct:
					kind = "struct"
				case *types.Interface:
					kind = "interface"
				}
				lines = append(lines, head+" "+kind)
			}
			if st, ok := under.(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() {
						lines = append(lines, fmt.Sprintf("%s, field %s %s", head, f.Name(), typ(f.Type())))
					}
				}
			}
			mset := types.NewMethodSet(types.NewPointer(types.Unalias(obj.Type())))
			if _, ok := under.(*types.Interface); ok {
				mset = types.NewMethodSet(obj.Type())
			}
			for m := range mset.Methods() {
				if fn := m.Obj(); fn.Exported() {
					lines = append(lines, head+", method "+fn.Name()+strings.TrimPrefix(typ(fn.Type()), "func"))
				}
			}
		}
	}
	slices.Sort(lines)
	return lines
}
