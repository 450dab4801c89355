package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	securetf "github.com/securetf/securetf"
)

// TestWorkerAttestsAndServes runs the worker's full startup against the
// cas command, in-process and reached over real TCP: publish the
// platform key, register the session, retry attestation until the CAS's
// trust scan has picked the key up, provision, serve, and self-test one
// classification over the shielded channel.
func TestWorkerAttestsAndServes(t *testing.T) {
	out := runWorker(t, "worker-platform",
		"-spec", "densenet",
		"-selftest",
		"-once",
	)
	for _, want := range []string{"attested to CAS", "serving TLS inference", "model densenet@1", "selftest: classified"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWorkerServesMultipleModels starts the worker in multi-model mode
// with batching and replica pools, and self-tests a classification
// against every hosted model over the shielded channel.
func TestWorkerServesMultipleModels(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes two paper-size models through the encrypted volume")
	}
	out := runWorker(t, "multi-platform",
		"-models", "densenet,inception_v3",
		"-replicas", "2",
		"-max-batch", "8",
		"-batch-window", "2ms",
		"-selftest",
		"-once",
	)
	for _, want := range []string{
		"serving TLS inference",
		"model densenet@1",
		"model inception_v3@1",
		"selftest: classified one input over shielded TLS → model densenet",
		"selftest: classified one input over shielded TLS → model inception_v3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWorkerTrainsSharded runs the worker's distributed-training mode:
// a 2-worker cluster with the parameter server sharded across 2 nodes,
// each shard on its own listener, every connection through the network
// shield.
func TestWorkerTrainsSharded(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"train",
		"-workers", "2",
		"-shards", "2",
		"-rounds", "2",
		"-batch", "10",
	}, &buf)
	if err != nil {
		t.Fatalf("train mode: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"2 workers, 2 parameter-server shards",
		"round 2: mean loss",
		"push wire per shard per round",
		"end-to-end training latency",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWorkerTrainsUnderChaos drives the training mode through a fault
// plan: one worker is killed mid-job and rejoins, the elastic barrier
// shrinks to the survivors, and the job still commits every round.
func TestWorkerTrainsUnderChaos(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"train",
		"-workers", "3",
		"-rounds", "3",
		"-batch", "10",
		"-chaos-plan", "kill:w2@r1+rejoin1",
	}, &buf)
	if err != nil {
		t.Fatalf("chaos train: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"worker 2: 2 rounds",
		"chaos: 1 evictions, 1 rejoins, 1 shrunk rounds",
		"all 3 rounds committed",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWorkerCheckpointResume persists encrypted shard snapshots to a
// host directory in one invocation and resumes from them in a second —
// the CLI face of the §5.4 checkpoint/restore path.
func TestWorkerCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{
		"train",
		"-workers", "2",
		"-rounds", "2",
		"-batch", "10",
		"-checkpoint-every", "2",
		"-checkpoint-dir", dir,
	}, &buf)
	if err != nil {
		t.Fatalf("checkpointing train: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "checkpoint volume: "+dir) {
		t.Fatalf("output missing the checkpoint volume:\n%s", buf.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "volume.key")); err != nil {
		t.Fatalf("no volume key persisted: %v", err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "checkpoints", "shard-0.ckpt"))
	if err != nil {
		t.Fatalf("no shard snapshot persisted: %v", err)
	}
	// The snapshot went through the file-system shield: the host-side
	// bytes must not carry the cleartext container magic.
	if bytes.Contains(snap, []byte("STFD1")) {
		t.Fatal("persisted snapshot is not encrypted")
	}

	buf.Reset()
	err = run([]string{
		"train",
		"-workers", "2",
		"-rounds", "4",
		"-batch", "10",
		"-resume-from", dir,
	}, &buf)
	if err != nil {
		t.Fatalf("resumed train: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"round 3: mean loss", "round 4: mean loss"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("resumed output missing %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), "round 1: mean loss") {
		t.Fatalf("resumed run re-trained from round 1:\n%s", buf.String())
	}
}

// runWorker starts the cas command in-process, drives a full worker
// startup against it and returns the worker's output.
func runWorker(t *testing.T, platformName string, extraArgs ...string) string {
	t.Helper()
	trustdir := t.TempDir()
	casInfo := filepath.Join(trustdir, "cas.pem")
	addr, stopCAS := startCAS(t, "-keyout", casInfo, "-trustdir", trustdir)
	var buf bytes.Buffer
	args := []string{
		"serve",
		"-cas", addr,
		"-cas-info", casInfo,
		"-trustdir", trustdir,
		"-name", platformName,
		"-listen", "127.0.0.1:0",
		"-timeout", "30s",
	}
	err := run(append(args, extraArgs...), &buf)
	casOut := stopCAS()
	if err != nil {
		t.Fatalf("worker: %v\noutput:\n%s\nCAS output:\n%s", err, buf.String(), casOut)
	}
	if want := fmt.Sprintf("trusting platform %q", platformName); !strings.Contains(casOut, want) {
		t.Fatalf("CAS output missing %s:\n%s", want, casOut)
	}
	return buf.String()
}

// startCAS runs the cas command in-process on a fresh store, with args
// added, and returns its address once it listens. stop interrupts it and
// returns everything it printed.
func startCAS(t *testing.T, args ...string) (addr string, stop func() string) {
	t.Helper()
	interrupt := make(chan os.Signal)
	saved := interrupted
	interrupted = func() <-chan os.Signal { return interrupt }
	args = append([]string{"cas", "-store", filepath.Join(t.TempDir(), "store")}, args...)
	pr, pw := io.Pipe()
	exited := make(chan error, 1)
	go func() {
		err := run(args, pw)
		pw.Close()
		exited <- err
	}()
	var out strings.Builder
	lines := bufio.NewScanner(pr)
	for addr == "" && lines.Scan() {
		out.WriteString(lines.Text() + "\n")
		addr, _ = strings.CutPrefix(lines.Text(), "CAS listening on ")
	}
	drained := make(chan struct{})
	go func() {
		for lines.Scan() {
			out.WriteString(lines.Text() + "\n")
		}
		close(drained)
	}()
	stop = func() string {
		close(interrupt)
		err := <-exited
		<-drained
		interrupted = saved
		if err != nil {
			t.Errorf("cas: %v\noutput:\n%s", err, out.String())
		}
		return out.String()
	}
	if addr == "" {
		stop()
		t.FailNow()
	}
	return addr, stop
}

// TestCASOnceWritesIdentity runs the cas command the way a deployment
// script smoke-tests it: start, publish the platform key and the
// measurement beside it, exit.
func TestCASOnceWritesIdentity(t *testing.T) {
	dir := t.TempDir()
	keyout := filepath.Join(dir, "trust", "cas.pem")
	var buf bytes.Buffer
	if err := run([]string{"cas", "-store", filepath.Join(dir, "store"), "-keyout", keyout, "-once"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CAS listening on 127.0.0.1:", "enclave measurement:", "platform key: " + keyout} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
	trust, measurement, err := readCASInfo(keyout)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trust["cas-platform"]; !ok || len(trust) != 1 {
		t.Fatalf("keyout holds %v, want the cas-platform key alone", trust)
	}
	if _, err := securetf.ParseMeasurement(measurement); err != nil {
		t.Fatalf("bad measurement file: %v", err)
	}
}

// TestCASLoadTrustDir: a scan trusts every platform key in the
// directory once, skips files that are not platform keys, and a rescan
// announces nothing new.
func TestCASLoadTrustDir(t *testing.T) {
	dir := t.TempDir()
	worker, err := securetf.NewPlatform("some-worker")
	if err != nil {
		t.Fatal(err)
	}
	if err := publishPlatformKey(filepath.Join(dir, "some-worker.pem"), worker); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{"notes.txt": "hi", "junk.pem": "not pem"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	casPlat, err := securetf.NewPlatform("cas-platform")
	if err != nil {
		t.Fatal(err)
	}
	server, err := securetf.StartCASWithTrust(casPlat, securetf.NewMemFS(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	var buf bytes.Buffer
	seen := make(map[string]bool)
	if err := loadTrustDir(server, dir, seen, &buf); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !seen["some-worker"] {
		t.Fatalf("scan trusted %v, want some-worker alone", seen)
	}
	buf.Reset()
	if err := loadTrustDir(server, dir, seen, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rescan re-announced: %s", buf.String())
	}
}

func TestWorkerRequiresFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"serve"}, &buf); err == nil {
		t.Fatal("missing flags accepted")
	}
}

// usageCase is one invocation that must be refused, with a fragment of
// the refusal.
type usageCase struct {
	name string
	args []string
	want string
}

// rejects runs every case and requires its usage error — a job that ran
// instead ran with a config the user didn't ask for. An error about the
// command word must list the table's commands.
func rejects(t *testing.T, cases []usageCase) {
	t.Helper()
	for _, tc := range cases {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
		for _, c := range commands {
			if strings.Contains(tc.want, "command") && !strings.Contains(err.Error(), "\n  "+c.name+" ") {
				t.Errorf("%s: usage error does not list command %q: %v", tc.name, c.name, err)
			}
		}
	}
}

// TestWorkerCommandWord pins the dispatcher: the first argument must be
// one of the table's commands. There is no bare-flag form and no mode
// flag, so the invocations that used to mix modes, or that ran one mode
// while dropping another's flags, have nothing to be parsed by.
func TestWorkerCommandWord(t *testing.T) {
	cases := []usageCase{
		{"no arguments", nil, "missing command"},
		{"bare serve flags", []string{"-cas", "127.0.0.1:7300"}, `unknown command "-cas"`},
		{"help without a command", []string{"-h"}, `unknown command "-h"`},
		{"mode flag", []string{"-train", "-federated"}, `unknown command "-train"`},
		{"misspelt command", []string{"trian"}, `unknown command "trian"`},
		{"two commands", []string{"router", "train"}, `unexpected argument "train"`},
		{
			"a fleet that dropped training, federated and serving flags",
			[]string{"-router", "-train-workers", "3", "-fed-rounds", "2", "-threads", "4", "-selftest"},
			`unknown command "-router"`,
		},
		{
			"the same, translated",
			[]string{"router", "-workers", "3", "-rounds", "2", "-threads", "4", "-selftest"},
			"flag provided but not defined: -workers",
		},
		{
			"training that dropped serving flags",
			[]string{"train", "-spec", "nonsense", "-selftest", "-listen", "foo", "-cas", "nowhere"},
			"flag provided but not defined: -spec",
		},
		{
			"serving that dropped a training flag",
			[]string{"serve", "-lr", "0.5"},
			"flag provided but not defined: -lr",
		},
	}
	rejects(t, cases)
}

// TestWorkerRejectsForeignFlags is generated from the command table:
// every flag of every command must be rejected, by the flag package, by
// each command that does not declare it. No row is hand-written, so a
// flag added to one command is covered the moment it is declared.
func TestWorkerRejectsForeignFlags(t *testing.T) {
	declared := make(map[string]*flag.FlagSet)
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		declared[c.name] = fs
	}
	pairs := 0
	for _, owner := range commands {
		declared[owner.name].VisitAll(func(f *flag.Flag) {
			for _, other := range commands {
				if declared[other.name].Lookup(f.Name) != nil {
					continue
				}
				pairs++
				err := run([]string{other.name, "-" + f.Name + "=" + f.DefValue}, io.Discard)
				if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+f.Name) {
					t.Errorf("%s accepted %s's -%s: %v", other.name, owner.name, f.Name, err)
				}
			}
		})
	}
	if pairs < 100 {
		t.Fatalf("only %d (flag, command) pairs checked; the walk over the command table is broken", pairs)
	}
}

// TestServiceNames: the session certificate must cover the listen host
// as an IP SAN when it is an IP literal (brackets stripped), and must
// not carry an empty or bracket name.
func TestServiceNames(t *testing.T) {
	cases := []struct {
		listen string
		want   []string // nil: rejected
	}{
		{"127.0.0.1:7400", []string{"classifier", "localhost", "127.0.0.1"}},
		{"[::1]:7400", []string{"classifier", "localhost", "::1"}},
		{":7400", []string{"classifier", "localhost"}},
		{"gateway.internal:0", []string{"classifier", "localhost", "gateway.internal"}},
		{"foo", nil},
		{"::1:7400", nil},
		{"", nil},
	}
	for _, tc := range cases {
		got, err := serviceNames(tc.listen)
		if (err != nil) != (tc.want == nil) || !slices.Equal(got, tc.want) {
			t.Errorf("serviceNames(%q) = %q, %v; want %q", tc.listen, got, err, tc.want)
		}
	}
}

// TestWorkerTrainsCompressed runs the training mode under the int8
// gradient codec and checks the cluster reports the codec and its wire
// volume.
func TestWorkerTrainsCompressed(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"train",
		"-workers", "2",
		"-rounds", "2",
		"-batch", "10",
		"-compress", "int8",
	}, &buf)
	if err != nil {
		t.Fatalf("compressed train mode: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"compress int8",
		"round 2: mean loss",
		"push wire bytes (total):",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWorkerTrainFlagValidation pins the usage-error contract: a flag
// that only applies under another flag's setting must be rejected when
// the settings contradict, not silently ignored, and an out-of-range
// value is rejected before any enclave is launched.
func TestWorkerTrainFlagValidation(t *testing.T) {
	cases := []usageCase{
		{
			"staleness under sync",
			[]string{"train", "-staleness", "4"},
			"-staleness only applies",
		},
		{
			"staleness under explicit sync",
			[]string{"train", "-consistency", "sync", "-staleness", "4"},
			"-staleness only applies",
		},
		{
			"topk fraction without the topk codec",
			[]string{"train", "-topk", "0.1"},
			"-topk only applies",
		},
		{
			"topk fraction under int8",
			[]string{"train", "-compress", "int8", "-topk", "0.1"},
			"-topk only applies",
		},
		{
			"negative topk fraction",
			[]string{"train", "-compress", "topk", "-topk", "-0.1"},
			"must be in (0, 1]",
		},
		{
			"topk fraction above 1",
			[]string{"train", "-compress", "topk", "-topk", "1.5"},
			"must be in (0, 1]",
		},
		{
			"unknown codec",
			[]string{"train", "-compress", "zstd"},
			"-compress must be",
		},
		{
			"unknown consistency",
			[]string{"train", "-consistency", "eventual"},
			"-consistency must be",
		},
		{
			"negative batch (was a makeslice panic in the data generator)",
			[]string{"train", "-batch", "-5"},
			"-batch must be >= 1",
		},
		{
			"zero batch",
			[]string{"train", "-batch", "0"},
			"-batch must be >= 1",
		},
		{
			"zero learning rate",
			[]string{"train", "-lr", "0"},
			"-lr must be > 0",
		},
		{
			"negative learning rate",
			[]string{"train", "-lr", "-0.01"},
			"-lr must be > 0",
		},
		{
			"malformed chaos plan",
			[]string{"train", "-chaos-plan", "explode:w0@r1"},
			"-chaos-plan",
		},
		{
			"empty chaos plan",
			[]string{"train", "-chaos-plan", ";"},
			"schedules nothing",
		},
		{
			"zero checkpoint cadence",
			[]string{"train", "-checkpoint-every", "0"},
			"-checkpoint-every must be >= 1",
		},
		{
			"checkpoint dir without cadence",
			[]string{"train", "-checkpoint-dir", "/tmp/ckpts"},
			"-checkpoint-dir only applies with -checkpoint-every",
		},
		{
			"chaos kill targeting a worker outside the cluster",
			[]string{"train", "-workers", "2", "-chaos-plan", "kill:w5@r1"},
			"targets worker 5",
		},
		{
			"chaos restart without checkpointing",
			[]string{"train", "-chaos-plan", "restart:ps0@r2"},
			"needs checkpointing",
		},
	}
	rejects(t, cases)
	// An async run may set the staleness bound; a topk run its fraction.
	var buf bytes.Buffer
	if err := run([]string{
		"train", "-rounds", "1", "-batch", "5", "-workers", "1",
		"-consistency", "async", "-staleness", "2",
		"-compress", "topk", "-topk", "0.2",
	}, &buf); err != nil {
		t.Fatalf("valid async+topk flag combination rejected: %v\n%s", err, buf.String())
	}
}

// TestWorkerFederated runs the worker's federated mode: an aggregator
// enclave plus a small sampled population under the masked topk uplink
// codec, with a quorum below the cohort size.
func TestWorkerFederated(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"federated",
		"-clients", "4",
		"-quorum", "3",
		"-rounds", "2",
		"-compress", "topk",
		"-topk", "0.25",
	}, &buf)
	if err != nil {
		t.Fatalf("federated mode: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"federated job: 4 clients",
		"quorum 3, 2 rounds",
		"rounds committed: 2",
		"masked uplink bytes (total):",
		"end-to-end federated latency",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWorkerFederatedFlagValidation pins the usage-error contract for
// the federated command: a quorum the sampled cohort can never reach,
// fractions outside (0, 1] and codec knobs without their codec are all
// rejected up front.
func TestWorkerFederatedFlagValidation(t *testing.T) {
	cases := []usageCase{
		{
			"quorum above the population",
			[]string{"federated", "-clients", "4", "-quorum", "5"},
			"-quorum 5 exceeds the 4 clients sampled",
		},
		{
			"quorum above the sampled cohort",
			[]string{"federated", "-clients", "10", "-sample-frac", "0.4", "-quorum", "5"},
			"-quorum 5 exceeds the 4 clients sampled",
		},
		{
			"negative quorum",
			[]string{"federated", "-clients", "4", "-quorum", "-1"},
			"exceeds",
		},
		{
			"sample fraction zero",
			[]string{"federated", "-sample-frac", "0"},
			"-sample-frac must be in (0, 1]",
		},
		{
			"sample fraction above one",
			[]string{"federated", "-sample-frac", "1.5"},
			"-sample-frac must be in (0, 1]",
		},
		{
			"no clients",
			[]string{"federated", "-clients", "0"},
			"-clients must be >= 1",
		},
		{
			"zero rounds",
			[]string{"federated", "-rounds", "0"},
			"-rounds must be >= 1",
		},
		{
			"unknown codec",
			[]string{"federated", "-compress", "zstd"},
			"-compress must be",
		},
		{
			"topk fraction without the topk codec",
			[]string{"federated", "-topk", "0.1"},
			"-topk only applies",
		},
		{
			"topk fraction under int8",
			[]string{"federated", "-compress", "int8", "-topk", "0.1"},
			"-topk only applies",
		},
		{
			"topk fraction above one",
			[]string{"federated", "-compress", "topk", "-topk", "1.5"},
			"-topk must be in (0, 1]",
		},
	}
	rejects(t, cases)
}

func TestWorkerRouterFleet(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"router", "-nodes", "2", "-graph"}, &buf)
	if err != nil {
		t.Fatalf("router mode: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"router fleet: 2 gateway nodes",
		"placement verified: node-0",
		"placement verified: node-1",
		"signed placement manifest verified",
		"graph pipeline: 3 steps in one call, output scale 8x",
		"step pre",
		"step post",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWorkerRouterFlagValidation pins the usage-error contract for the
// router command.
func TestWorkerRouterFlagValidation(t *testing.T) {
	cases := []usageCase{
		{
			"zero nodes",
			[]string{"router", "-nodes", "0"},
			"-nodes must be >= 1",
		},
	}
	rejects(t, cases)
}

func TestLoadModelSpecs(t *testing.T) {
	for _, spec := range []string{"densenet", "inception_v3"} {
		m, err := loadModel(spec, "")
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if m.WeightBytes() == 0 {
			t.Fatalf("%s: empty model", spec)
		}
	}
	if _, err := loadModel("resnet-9000", ""); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestWorkerServeFlagValidation pins the same usage-error contract for
// the serve command: out-of-range serving knobs and control-plane flags
// that contradict each other are rejected up front, before any container
// or CAS work happens.
func TestWorkerServeFlagValidation(t *testing.T) {
	cases := []usageCase{
		{
			"zero replicas",
			[]string{"serve", "-replicas", "0"},
			"-replicas must be >= 1",
		},
		{
			"negative replicas",
			[]string{"serve", "-replicas", "-2"},
			"-replicas must be >= 1",
		},
		{
			"zero max-batch",
			[]string{"serve", "-max-batch", "0"},
			"-max-batch must be >= 1",
		},
		{
			"empty models list",
			[]string{"serve", "-models", ""},
			"-models lists no models",
		},
		{
			"blank models list",
			[]string{"serve", "-models", " , "},
			"-models lists no models",
		},
		{
			"autoscale ceiling without autoscale",
			[]string{"serve", "-autoscale-max", "4"},
			"-autoscale-max only applies",
		},
		{
			"autoscale ceiling below one",
			[]string{"serve", "-autoscale", "-autoscale-max", "0"},
			"-autoscale-max must be >= 1",
		},
		{
			"canary percent zero",
			[]string{"serve", "-canary", "0"},
			"-canary must be a traffic percent",
		},
		{
			"canary percent above 99",
			[]string{"serve", "-canary", "100"},
			"-canary must be a traffic percent",
		},
		{
			"listen address without a port",
			[]string{"serve", "-listen", "foo"},
			"-listen:",
		},
		{
			"required flags missing",
			[]string{"serve"},
			"-cas, -cas-info and -trustdir are required",
		},
	}
	rejects(t, cases)
}

// TestWorkerCanaryAutoscale starts the worker with the control plane on:
// autoscaling enabled and a staged version-2 canary per model. The
// healthy identical candidate must be reported, and the selftest still
// classifies over the shielded channel.
func TestWorkerCanaryAutoscale(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes two copies of a paper-size model through the encrypted volume")
	}
	out := runWorker(t, "canary-platform",
		"-spec", "densenet",
		"-autoscale",
		"-autoscale-max", "4",
		"-canary", "25",
		"-selftest",
		"-once",
	)
	for _, want := range []string{
		"autoscale: up to 4 replicas per model",
		"canary: model densenet@2 at 25% of unpinned traffic",
		"selftest: classified",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
