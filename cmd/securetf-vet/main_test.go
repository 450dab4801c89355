package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the package-pattern cases.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goMod = "module scratch\n\ngo 1.24\n"

// violating has one nowallclock and one wirealloc finding, so analyzer
// selection is observable from which diagnostics survive.
const violating = `package dist

import (
	"encoding/binary"
	"time"
)

func Decode(frame []byte) []byte {
	time.Sleep(time.Millisecond)
	n := binary.LittleEndian.Uint32(frame)
	return make([]byte, n)
}
`

const suppressed = `package dist

import "time"

func Wait() {
	//securetf:allow nowallclock watchdog paces a real peer
	time.Sleep(time.Millisecond)
}
`

const badDirective = `package dist

import "time"

func Wait() {
	//securetf:allow frobnicate some reason
	time.Sleep(time.Millisecond)
}
`

const clean = `package dist

func Add(a, b int) int { return a + b }
`

// TestRun drives the built tool the way a user and go vet do: by its
// arguments, in a working directory, read back by exit code and output.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet; skipped in -short")
	}
	tool := filepath.Join(t.TempDir(), "securetf-vet")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	violDir := writeModule(t, map[string]string{"go.mod": goMod, "dist/dist.go": violating})
	supprDir := writeModule(t, map[string]string{"go.mod": goMod, "dist/dist.go": suppressed})
	badDir := writeModule(t, map[string]string{"go.mod": goMod, "dist/dist.go": badDirective})
	cleanDir := writeModule(t, map[string]string{"go.mod": goMod, "dist/dist.go": clean})
	missingCfg := filepath.Join(t.TempDir(), "missing.cfg")
	junkCfg := filepath.Join(t.TempDir(), "junk.cfg")
	if err := os.WriteFile(junkCfg, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		dir        string
		exit       int
		wantOut    []string // substrings of stdout
		wantErr    []string // substrings of stderr
		notWantErr []string
	}{
		{
			name: "list",
			args: []string{"-list"},
			exit: 0,
			wantOut: []string{
				"detrand", "nowallclock", "rawnet",
				"shieldedfs", "wirealloc",
			},
		},
		{
			name:    "version full",
			args:    []string{"-V=full"},
			exit:    0,
			wantOut: []string{" version devel buildID="},
		},
		{
			name:    "version short rejected",
			args:    []string{"-V=short"},
			exit:    2,
			wantErr: []string{"only -V=full"},
		},
		{
			name:    "flags json",
			args:    []string{"-flags"},
			exit:    0,
			wantOut: []string{`"Name": "nowallclock"`},
		},
		{
			name:    "unknown analyzer flag",
			args:    []string{"-nosuchanalyzer", "./..."},
			exit:    2,
			wantErr: []string{"flag provided but not defined"},
		},
		{
			name:    "help",
			args:    []string{"-h"},
			exit:    0,
			wantErr: []string{"usage:", "unit.cfg"},
		},
		{
			name:    "missing cfg",
			args:    []string{missingCfg},
			exit:    2,
			wantErr: []string{"no such file"},
		},
		{
			name:    "malformed cfg",
			args:    []string{junkCfg},
			exit:    2,
			wantErr: []string{"cannot decode JSON config file"},
		},
		{
			name:    "default all analyzers catch violations",
			args:    []string{"./..."},
			dir:     violDir,
			exit:    1,
			wantErr: []string{"[nowallclock]", "[wirealloc]"},
		},
		{
			name:       "single analyzer selection",
			args:       []string{"-wirealloc", "./..."},
			dir:        violDir,
			exit:       1,
			wantErr:    []string{"[wirealloc]"},
			notWantErr: []string{"[nowallclock]"},
		},
		{
			name: "other analyzer selection misses",
			args: []string{"-detrand", "./..."},
			dir:  violDir,
			exit: 0,
		},
		{
			name:       "negative selection excludes",
			args:       []string{"-nowallclock=false", "./..."},
			dir:        violDir,
			exit:       1,
			wantErr:    []string{"[wirealloc]"},
			notWantErr: []string{"[nowallclock]"},
		},
		{
			name: "suppressed violation is clean",
			args: []string{"./..."},
			dir:  supprDir,
			exit: 0,
		},
		{
			name: "selection does not misreport other analyzers' directives",
			args: []string{"-wirealloc", "./..."},
			dir:  supprDir,
			exit: 0,
		},
		{
			name:    "malformed directive fails closed",
			args:    []string{"./..."},
			dir:     badDir,
			exit:    1,
			wantErr: []string{`unknown analyzer "frobnicate"`, "[nowallclock]"},
		},
		{
			name: "clean module",
			args: []string{"./..."},
			dir:  cleanDir,
			exit: 0,
		},
		{
			name:    "cfg mixed with patterns",
			args:    []string{junkCfg, "./..."},
			exit:    2,
			wantErr: []string{"cannot be mixed"},
		},
		{
			name:    "unknown pattern",
			args:    []string{"./nonexistent/..."},
			dir:     cleanDir,
			exit:    1,
			wantErr: []string{"pattern ./nonexistent/..."},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			cmd := exec.Command(tool, tc.args...)
			cmd.Dir, cmd.Stdout, cmd.Stderr = tc.dir, &stdout, &stderr
			got := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				got = exit.ExitCode()
			}
			if got != tc.exit {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.exit, stdout.String(), stderr.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			for _, notWant := range tc.notWantErr {
				if strings.Contains(stderr.String(), notWant) {
					t.Errorf("stderr unexpectedly contains %q:\n%s", notWant, stderr.String())
				}
			}
		})
	}
}

// TestFlagsJSONWellFormed decodes the -flags output the way cmd/go
// does: it must be a JSON array of {Name,Bool,Usage} objects and must
// not leak the -list convenience flag into the vet protocol.
func TestFlagsJSONWellFormed(t *testing.T) {
	var stdout, stderr strings.Builder
	if got := run([]string{"-flags"}, &stdout, &stderr); got != 0 {
		t.Fatalf("-flags exit = %d, stderr: %s", got, stderr.String())
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal([]byte(stdout.String()), &flags); err != nil {
		t.Fatalf("-flags output is not valid JSON: %v\n%s", err, stdout.String())
	}
	names := map[string]bool{}
	for _, f := range flags {
		names[f.Name] = true
	}
	if names["list"] {
		t.Error("-flags leaked the -list convenience flag into the vet protocol")
	}
	for _, want := range []string{"V", "flags", "nowallclock", "wirealloc"} {
		if !names[want] {
			t.Errorf("-flags output missing flag %q", want)
		}
	}
}
