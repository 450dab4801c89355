package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFigure4(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 4", "IAS", "secureTF CAS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTrainingFigures drives the two cluster figures only the CLI
// prints, at the smallest size that still kills a worker mid-job.
func TestRunTrainingFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("trains seven small clusters")
	}
	for fig, want := range map[string]string{
		"8-shards":  "push-wire/shard",
		"9-elastic": "survivor throughput",
	} {
		var buf bytes.Buffer
		if err := run([]string{"-fig", fig, "-steps", "2", "-batch", "20"}, &buf); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-fig %s output missing %q:\n%s", fig, want, buf.String())
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-fig", "no-such-figure"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "9-elastic, tf-vs-tflite, elastic or all") {
		t.Fatalf("unknown figure: got %v, want an error listing the figure table", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}
