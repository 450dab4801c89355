// Package twintest times a package's fast paths against their twins,
// the paths its dispatch takes without them, and holds its amd64
// assembly to its table of them. Only tests import it.
package twintest

import (
	"io/fs"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// A Row is one fast path and its twin at the shape a benchmark workload
// runs them at.
type Row struct {
	Name    string
	Routine string  // the TEXT routine the fast path runs, "" for a Go fast path
	Needs   bool    // the CPU has what the fast path, and its floor, rest on
	Floor   float64 // the least twin÷fast time CI accepts; 0 gates nothing
	Setup   func(rng *rand.Rand) (fast, twin func())
}

// Bench sets each row up, untimed, then times its twin and its fast
// path, b.N calls each, and reports the fast path's ns/op, the twin's,
// their ratio and the row's floor. A row whose CPU lacks what it needs
// is skipped: its assembly would not run there, and CI sees no ratio to
// gate. CI fails a row whose ratio is below its floor.
func Bench(b *testing.B, rows []Row) {
	rng := rand.New(rand.NewSource(5))
	for _, row := range rows {
		b.Run(row.Name, func(b *testing.B) {
			if !row.Needs {
				b.Skip("the CPU lacks what the fast path needs")
			}
			fast, twin := row.Setup(rng)
			b.ResetTimer()
			for range b.N {
				twin()
			}
			slow := b.Elapsed()
			b.ResetTimer()
			for range b.N {
				fast()
			}
			b.StopTimer()
			b.ReportMetric(float64(slow.Nanoseconds())/float64(b.N), "twin-ns/op")
			b.ReportMetric(float64(slow)/float64(b.Elapsed()), "ratio")
			b.ReportMetric(row.Floor, "floor")
		})
	}
}

// Contract reads the *_amd64.s files of src, the test's package
// directory: every TEXT routine has exactly one row, every row's Routine
// is one of them, and no line outside a comment fuses a multiply and an
// add, which rounds once where the kernels' contract rounds twice.
func Contract(t *testing.T, src fs.FS, rows []Row) {
	t.Helper()
	files, err := fs.Glob(src, "*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no *_amd64.s files (%v)", err)
	}
	routine, fused := regexp.MustCompile(`^TEXT\s+·(\w+)\(SB\)`), regexp.MustCompile(`\bVFN?M(ADD|SUB)`)
	routines := map[string]int{}
	for _, file := range files {
		text, err := fs.ReadFile(src, file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			if m := routine.FindStringSubmatch(line); m != nil {
				routines[m[1]] = 0
			}
			if code, _, _ := strings.Cut(line, "//"); fused.MatchString(code) {
				t.Errorf("%s:%d fuses a multiply-add: %s", file, i+1, strings.TrimSpace(line))
			}
		}
	}
	for _, row := range rows {
		if row.Routine == "" {
			continue
		}
		if _, ok := routines[row.Routine]; !ok {
			t.Errorf("twins row %s names %s, which no *_amd64.s file defines", row.Name, row.Routine)
			continue
		}
		routines[row.Routine]++
	}
	for name, n := range routines {
		if n != 1 {
			t.Errorf("TEXT ·%s has %d twins rows, want 1", name, n)
		}
	}
}
