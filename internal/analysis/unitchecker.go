package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// UnitConfig is the JSON compilation-unit description `go vet` hands a
// -vettool binary (one *.cfg file per package). The field set mirrors
// the contract cmd/go encodes; fields this driver does not consume
// (fact files, gccgo specifics) are kept so the JSON decodes cleanly.
type UnitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit analyzes the single compilation unit described by cfgFile,
// printing diagnostics to out. It returns the process exit code: 0
// clean, 1 diagnostics, 2 driver failure. The fact-output file cmd/go
// expects (VetxOutput) is always written — the suite exports no facts,
// so it is empty — and VetxOnly units (dependencies analyzed only for
// facts) are satisfied by that file alone.
func RunUnit(cfgFile string, analyzers []*Analyzer, out io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(out, "securetf-vet: %v\n", err)
		return 2
	}
	cfg := new(UnitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(out, "securetf-vet: cannot decode JSON config file %s: %v\n", cfgFile, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(out, "securetf-vet: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	if len(cfg.GoFiles) == 0 {
		fmt.Fprintf(out, "securetf-vet: package has no files: %s\n", cfg.ImportPath)
		return 2
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0 // the compiler will report it
			}
			fmt.Fprintf(out, "securetf-vet: %v\n", err)
			return 2
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})

	conf := &types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(out, "securetf-vet: %v\n", err)
		return 2
	}

	diags, err := RunPackage(fset, files, pkg, info, cfg.ModulePath, analyzers)
	if err != nil {
		fmt.Fprintf(out, "securetf-vet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(out, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
