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
// Figures: 4 (attestation latency), 5 (classification latency across
// runtimes), 6 (file-system shield effect), 7 (scale-up/scale-out),
// 8 (distributed training), 8-async (bounded-staleness consistency
// sweep with a straggler), 8-compress (gradient codecs on the push
// path, TLS × {none, int8, top-k}), tf-vs-tflite (§5.3 #4 comparison),
// elastic (challenge ➍: attesting an autoscaling wave, CAS vs IAS).
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

	"github.com/securetf/securetf/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "securetf-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("securetf-bench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 4, 5, 6, 7, 8, 8-async, 8-compress, tf-vs-tflite, all")
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

	type figure struct {
		name string
		run  func() error
	}
	figures := []figure{
		{"4", func() error {
			rows, err := experiments.Figure4(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure4(w, rows)
			return nil
		}},
		{"5", func() error {
			rows, err := experiments.Figure5(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure5(w, rows)
			return nil
		}},
		{"6", func() error {
			rows, err := experiments.Figure6(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure6(w, rows)
			return nil
		}},
		{"7", func() error {
			rows, err := experiments.Figure7(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure7(w, rows)
			return nil
		}},
		{"8", func() error {
			rows, err := experiments.Figure8(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure8(w, rows)
			return nil
		}},
		{"8-async", func() error {
			rows, err := experiments.Figure8Async(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure8Async(w, rows)
			return nil
		}},
		{"8-compress", func() error {
			rows, err := experiments.Figure8Compress(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure8Compress(w, rows)
			return nil
		}},
		{"tf-vs-tflite", func() error {
			rows, err := experiments.TFvsTFLite(cfg)
			if err != nil {
				return err
			}
			experiments.PrintTFvsTFLite(w, rows)
			return nil
		}},
		{"elastic", func() error {
			const wave = 4
			casTotal, iasTotal, err := experiments.ElasticScaling(wave)
			if err != nil {
				return err
			}
			experiments.PrintElasticScaling(w, wave, casTotal, iasTotal)
			return nil
		}},
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
		if err := f.run(); err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (want 4, 5, 6, 7, 8, 8-async, 8-compress, tf-vs-tflite, elastic or all)", *fig)
	}
	return nil
}
