// Command securetf-vet runs the secureTF static-invariant suite
// (internal/analysis): nowallclock, detrand, shieldedfs, rawnet and
// wirealloc.
//
// It is a `go vet` tool: go vet hands it one compilation unit at a time,
// test files included, through the unitchecker protocol (-V=full,
// -flags, one *.cfg file per invocation). Given package patterns instead,
// it runs go vet with itself as the tool, so these two are the same pass:
//
//	securetf-vet ./...
//	go vet -vettool=$(which securetf-vet) ./...
//
// Analyzers are selected like vet checks: with no selection flags all
// run; -nowallclock (etc.) runs only the named ones; -nowallclock=false
// runs all but. -list prints the suite.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/securetf/securetf/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for tests: args are the command-line arguments,
// and the result is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("securetf-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `securetf-vet checks the secureTF static invariants.

usage:
	securetf-vet [-<analyzer>[=false]...] [packages]  # go vet -vettool=securetf-vet [packages]
	securetf-vet unit.cfg                             # go vet -vettool protocol
	securetf-vet -list                                # list analyzers

`)
		fs.PrintDefaults()
	}

	all := analysis.All()
	selection := make(map[string]*triState, len(all))
	for _, a := range all {
		ts := new(triState)
		selection[a.Name] = ts
		fs.Var(ts, a.Name, "enable only "+a.Name+" analysis (=false: all but)")
	}
	list := fs.Bool("list", false, "list analyzers and exit")
	printflags := fs.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	var vFull bool
	fs.Var(versionFlag{full: &vFull}, "V", "print version and exit (go vet protocol; only -V=full)")

	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if vFull {
		if err := printVersion(stdout); err != nil {
			fmt.Fprintf(stderr, "securetf-vet: %v\n", err)
			return 2
		}
		return 0
	}
	if *printflags {
		printFlagsJSON(fs, stdout)
		return 0
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return 0
	}

	var cfgs, patterns []string
	for _, arg := range fs.Args() {
		if strings.HasSuffix(arg, ".cfg") {
			cfgs = append(cfgs, arg)
		} else {
			patterns = append(patterns, arg)
		}
	}
	switch {
	case len(cfgs) > 1 || (len(cfgs) == 1 && len(patterns) > 0):
		fmt.Fprintln(stderr, "securetf-vet: a single unit.cfg cannot be mixed with package patterns")
		return 2
	case len(cfgs) == 1:
		return analysis.RunUnit(cfgs[0], selectAnalyzers(all, selection), stderr)
	}
	return goVet(fs, selection, patterns, stdout, stderr)
}

// goVet runs `go vet -vettool=<this executable>` over patterns (./...
// when none), passing the analyzer selection on, and returns its exit
// code.
func goVet(fs *flag.FlagSet, selection map[string]*triState, patterns []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "securetf-vet: %v\n", err)
		return 2
	}
	args := []string{"vet", "-vettool=" + exe}
	fs.Visit(func(f *flag.Flag) {
		if selection[f.Name] != nil {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		fmt.Fprintf(stderr, "securetf-vet: %v\n", err)
		return 2
	}
	return 0
}

// selectAnalyzers applies vet-style selection: any flag set true means
// "only those"; otherwise flags set false subtract from the full set.
func selectAnalyzers(all []*analysis.Analyzer, selection map[string]*triState) []*analysis.Analyzer {
	anyTrue := false
	for _, ts := range selection {
		if *ts == setTrue {
			anyTrue = true
		}
	}
	var enabled []*analysis.Analyzer
	for _, a := range all {
		switch *selection[a.Name] {
		case setTrue:
			enabled = append(enabled, a)
		case unset:
			if !anyTrue {
				enabled = append(enabled, a)
			}
		}
	}
	return enabled
}

// printFlagsJSON describes the flag set in the JSON form `go vet` uses
// to validate pass-through flags (-flags protocol).
func printFlagsJSON(fs *flag.FlagSet, out io.Writer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "list" {
			return // direct-invocation convenience, not a vet flag
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	sort.Slice(flags, func(i, j int) bool { return flags[i].Name < flags[j].Name })
	fmt.Fprintln(out, "[")
	for i, f := range flags {
		comma := ","
		if i == len(flags)-1 {
			comma = ""
		}
		fmt.Fprintf(out, "\t{\"Name\": %q, \"Bool\": %v, \"Usage\": %q}%s\n", f.Name, f.Bool, f.Usage, comma)
	}
	fmt.Fprintln(out, "]")
}

// triState distinguishes -name, -name=false and absent, like vet's
// analyzer selection flags.
type triState int

const (
	unset triState = iota
	setTrue
	setFalse
)

func (ts *triState) IsBoolFlag() bool { return true }

func (ts *triState) String() string {
	return strconv.FormatBool(*ts == setTrue)
}

func (ts *triState) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return err
	}
	if v {
		*ts = setTrue
	} else {
		*ts = setFalse
	}
	return nil
}

// versionFlag implements the -V=full handshake `go vet` uses to key
// its build cache; only the "full" form is valid.
type versionFlag struct{ full *bool }

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }

func (v versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s (only -V=full)", s)
	}
	*v.full = true
	return nil
}

// printVersion emits the go vet buildID line. The ID must change
// whenever the tool's analyses change — a stale cache would silently
// skip new checks — so it hashes the executable itself.
func printVersion(out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s version devel buildID=%x\n", filepath.Base(exe), sha256.Sum256(data))
	return nil
}
