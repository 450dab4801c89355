package analysis_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/analysis"
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
const maxAllowDirectives = 12

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

// TestFacadeOwnsTheTrainingCluster holds the import direction that lets
// the paper's figures train on the cluster every other client gets: the
// root package does not depend on internal/experiments, and outside
// internal/tf/dist only the facade's dist.go builds a training node.
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
	files := goList("-f", `{{range .GoFiles}}{{$.ImportPath}}/{{.}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}`, "./...")
	for _, line := range strings.Split(strings.TrimSpace(files), "\n") {
		name, path, _ := strings.Cut(line, " ")
		if name == "github.com/securetf/securetf/dist.go" || strings.Contains(name, "/internal/tf/dist/") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ctor := range []string{"dist.NewParameterServer(", "dist.NewWorker("} {
			if strings.Contains(string(src), ctor) {
				t.Errorf("%s calls %s…): build training nodes with StartParameterServer / StartTrainingWorker", name, ctor)
			}
		}
	}
}
