// Command securetf-bench regenerates every table and figure of the
// paper's evaluation (§5) from the command line.
//
// Usage:
//
//	securetf-bench -fig all
//	securetf-bench -fig 5 -runs 20
//	securetf-bench -fig 7 -images 800        # the paper's full batch
//	securetf-bench -fig 8 -steps 12 -batch 100
//
// securetf-bench -h lists the figures; the list is the figure table
// below, which is also what -fig accepts.
//
// Absolute numbers come from the calibrated virtual-time cost model and
// are not expected to match the paper's testbed; the shape checks in
// internal/experiments assert orderings, overhead bands and crossovers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/securetf/securetf/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "securetf-bench:", err)
		os.Exit(1)
	}
}

// figure is one row of the figure table: a -fig value, what it
// regenerates, and the experiment with its printer.
type figure struct {
	name, what string
	run        func(cfg experiments.Config, w io.Writer) error
}

var figures = []figure{
	{"4", "attestation latency", table(experiments.Figure4, experiments.PrintFigure4)},
	{"5", "classification latency across runtimes", table(experiments.Figure5, experiments.PrintFigure5)},
	{"6", "file-system shield effect", table(experiments.Figure6, experiments.PrintFigure6)},
	{"7", "scale-up/scale-out", table(experiments.Figure7, experiments.PrintFigure7)},
	{"8", "distributed training", table(experiments.Figure8, experiments.PrintFigure8)},
	{"8-shards", "sharded parameter server sweep", table(experiments.Figure8Shards, experiments.PrintFigure8Shards)},
	{"8-async", "bounded-staleness consistency sweep with a straggler", table(experiments.Figure8Async, experiments.PrintFigure8Async)},
	{"8-compress", "gradient codecs on the push path, TLS × {none, int8, top-k}", table(experiments.Figure8Compress, experiments.PrintFigure8Compress)},
	{"9-elastic", "§3.2 worker elasticity: round throughput across a mid-job kill", table(experiments.Figure9Elastic, experiments.PrintFigure9Elastic)},
	{"tf-vs-tflite", "§5.3 #4 comparison", table(experiments.TFvsTFLite, experiments.PrintTFvsTFLite)},
	{"elastic", "challenge ➍: attesting an autoscaling wave, CAS vs IAS", func(_ experiments.Config, w io.Writer) error {
		const wave = 4
		casTotal, iasTotal, err := experiments.ElasticScaling(wave)
		if err != nil {
			return err
		}
		experiments.PrintElasticScaling(w, wave, casTotal, iasTotal)
		return nil
	}},
}

// table pairs an experiment with the printer of its rows.
func table[R any](rows func(experiments.Config) ([]R, error), print func(io.Writer, []R)) func(experiments.Config, io.Writer) error {
	return func(cfg experiments.Config, w io.Writer) error {
		r, err := rows(cfg)
		if err != nil {
			return err
		}
		print(w, r)
		return nil
	}
}

func run(args []string, w io.Writer) error {
	names := make([]string, len(figures))
	figHelp := "figure to regenerate:"
	for i, f := range figures {
		names[i] = f.name
		figHelp += fmt.Sprintf("\n  %-13s %s", f.name, f.what)
	}
	figHelp += "\n  all"
	fs := flag.NewFlagSet("securetf-bench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", figHelp)
		runs    = fs.Int("runs", 0, "classification runs averaged per point (paper: 1000)")
		images  = fs.Int("images", 0, "figure 7 batch size (paper: 800)")
		steps   = fs.Int("steps", 0, "figure 8 training steps")
		batch   = fs.Int("batch", 0, "figure 8 minibatch size (paper: 100)")
		verbose = fs.Bool("v", false, "log progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Runs: *runs, Images: *images, Steps: *steps, BatchSize: *batch}
	if *verbose {
		cfg.Log = os.Stderr
	}

	matched := false
	for i, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		matched = true
		if i > 0 && *fig == "all" {
			fmt.Fprintln(w)
		}
		if err := f.run(cfg, w); err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (want %s or all)", *fig, strings.Join(names, ", "))
	}
	return nil
}
