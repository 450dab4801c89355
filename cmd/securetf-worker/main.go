// Command securetf-worker runs one job of a secureTF deployment, named
// by the command word that must come first:
//
//	securetf-worker cas|serve|train|federated|router [flags]
//
// Each command declares only its own flags (`securetf-worker train -h`
// lists train's fourteen), so another command's flag, or no command word
// at all, is rejected by construction. Within a command, flags that
// contradict each other — -staleness under sync, -topk without the topk
// codec, a fraction outside (0, 1], a -quorum larger than the sampled
// cohort — are usage errors, not silently ignored.
//
// cas runs the Configuration and Attestation Service every secure
// container attests to before it receives secrets, volume keys and TLS
// identities (paper §3.3.2, §4.3):
//
//	securetf-worker cas -listen 127.0.0.1:7300 -store /var/lib/securetf-cas \
//	                    -keyout /run/securetf/trust/cas.pem -trustdir /run/securetf/trust
//
// The CAS and the workers of one deployment meet in a trust directory,
// the simulation's stand-in for DCAP platform registration. On startup
// the CAS writes its platform attestation key (PEM) to -keyout and its
// enclave measurement to the .measurement file beside it; a worker
// verifies the CAS quote against both before trusting it (paper §3.1
// step 1), and drops its own key into -trustdir as <name>.pem, where the
// CAS picks it up on its next scan.
//
// serve runs a secure inference container that attests to a CAS,
// receives its volume key and TLS identity, and serves classification
// requests — one node of the paper's Fig. 2 architecture. Against the
// CAS started above:
//
//	securetf-worker serve -cas 127.0.0.1:7300 -cas-info /run/securetf/trust/cas.pem \
//	                      -trustdir /run/securetf/trust -spec densenet -listen 127.0.0.1:7400
//
// The worker publishes its platform key in -trustdir, registers a
// session covering its enclave measurement, retries attestation until
// the CAS has picked the key up, and serves. With -selftest it
// additionally spins up an attested client container in-process and
// runs one classification over the shielded TLS channel to prove the
// path end to end. The gateway's control plane is exposed too:
// -autoscale lets the gateway move replica counts with queue depth (up
// to -autoscale-max, idle models scaling to zero), and -canary N stages
// version 2 of every served model and routes N% of unpinned traffic to
// it, letting the gateway's rejection-rate and p99 comparison promote or
// roll it back.
//
// train stands up the paper's §5.4 distributed training cluster
// in-process: -shards parameter-server nodes (one enclave and one
// listener per shard, the model variables partitioned across them by
// name hash) and -workers worker enclaves running data-parallel SGD on
// MNIST:
//
//	securetf-worker train -workers 3 -shards 2 -rounds 4
//	securetf-worker train -workers 4 -consistency async -staleness 8
//	securetf-worker train -workers 4 -compress topk -topk 0.05
//
// -consistency selects the commit policy: "sync" (barrier rounds, the
// default) or "async" (apply-on-push with the -staleness bound K; -1 is
// unbounded). -compress selects the push-path gradient codec: "none"
// (raw float32, the default), "int8" (per-tensor symmetric quantization,
// ~4× fewer wire bytes) or "topk" (the top -topk fraction of entries by
// magnitude, sent sparse); both lossy codecs keep a worker-side
// error-feedback residual, so convergence is preserved.
// With -tls (the default) or snapshots, every node attests to a CAS
// the job starts in-process, which issues its TLS identity and hands
// the shards the snapshot volume key.
// Training survives failures: -checkpoint-every N snapshots every
// parameter-server shard each N committed rounds through the
// file-system shield (encrypted and authenticated on the host volume,
// and audited by the job's CAS, so a shard restarted by -chaos-plan
// refuses a snapshot the host rolled back); -checkpoint-dir persists
// the snapshots, and the volume key the CAS provisions, to a host
// directory, and -resume-from points a later invocation at that
// directory to continue the job exactly where it stopped — the resumed
// trajectory is bit-identical to an uninterrupted one. The resuming
// invocation's CAS is new and has no record of the earlier one's
// snapshots, so it cannot tell a rolled-back directory from a current
// one. -chaos-plan
// replays a deterministic fault schedule against the cluster
// (kill:w1@r2+rejoin1, stall:w0@r3, delay:w2@r1+40ms, restart:ps0@r2,
// semicolon-separated); kill and stall faults switch the cluster
// elastic, so the round barrier shrinks to the survivors instead of
// aborting.
//
// federated runs the paper's §6.2 federated-learning deployment
// in-process: an aggregator enclave running FedAvg quorum rounds over
// -clients simulated participants with pairwise-masked secure
// aggregation (the aggregator only ever sees blinded updates whose masks
// cancel in the sum):
//
//	securetf-worker federated -clients 16 -sample-frac 0.5 -quorum 6 -compress topk
//
// -sample-frac picks the per-round cohort, -quorum is the number of
// accepted uploads that closes a round (stragglers past it are refused
// and retry), and -compress selects the masked uplink codec: "none",
// "int8" (16-bit ring) or "topk" (the shared pseudo-random -topk
// fraction of coordinates, no index bytes on the wire).
//
// router runs the §6.1 serving fleet in-process: -nodes gateways behind
// a router that verifies and signs the model→node placement, with -graph
// a pipeline inference graph compiled across them.
package main

import (
	"crypto/ecdsa"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	securetf "github.com/securetf/securetf"
)

// command is one of the worker's jobs. setup declares the command's own
// flags on fs — only those, which is what makes every other command's
// flag an error — and returns the job to run once fs has parsed them.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) (run func(w io.Writer) error)
}

// commands is the one table the dispatcher, the usage text and the
// foreign-flag test read.
var commands = []command{
	{"cas", "run the Configuration and Attestation Service the containers attest to (§3.3.2, §4.3)", casCommand},
	{"serve", "attest to a CAS, receive keys and serve inference over shielded TLS (Fig. 2)", serveCommand},
	{"train", "run a distributed training cluster in-process (§5.4)", trainCommand},
	{"federated", "run a federated-learning job with pairwise-masked secure aggregation in-process (§6.2)", federatedCommand},
	{"router", "run a multi-node serving fleet behind a router in-process (§6.1)", routerCommand},
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "securetf-worker:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return usageError("missing command")
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("securetf-worker "+c.name, flag.ContinueOnError)
		fs.Usage = func() {
			fmt.Fprintf(fs.Output(), "usage: securetf-worker %s [flags]\n%s\n", c.name, c.summary)
			fs.PrintDefaults()
		}
		// main reports a parse error once; the flag package's copy and
		// the usage dump it appends would only bury it.
		fs.SetOutput(io.Discard)
		job := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				fs.SetOutput(w)
				fs.Usage()
			}
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("%s: unexpected argument %q", c.name, fs.Arg(0))
		}
		return job(w)
	}
	return usageError(fmt.Sprintf("unknown command %q", args[0]))
}

// usageError reports a missing or unrecognised command word.
func usageError(problem string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nusage: securetf-worker <command> [flags]\n", problem)
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-10s %s\n", c.name, c.summary)
	}
	b.WriteString("'securetf-worker <command> -h' lists a command's flags")
	return errors.New(b.String())
}

// isSet reports whether the command line gave the named flag: a flag
// that only means something under another flag's setting is a usage
// error when given against it, whatever its value.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// codecFlag resolves a command's -compress / -topk pair into its codec
// (the training push path's or the federated uplink's: one policy type).
func codecFlag(fs *flag.FlagSet, compress string, topk float64) (securetf.GradCompression, error) {
	none := securetf.NoGradCompression()
	switch compress {
	case "none", "int8":
		if isSet(fs, "topk") {
			return none, errors.New("-topk only applies with -compress topk")
		}
		if compress == "int8" {
			return securetf.Int8GradCompression(), nil
		}
		return none, nil
	case "topk":
		if !(topk > 0 && topk <= 1) {
			return none, fmt.Errorf("-topk must be in (0, 1], got %g", topk)
		}
		return securetf.TopKGradCompression(topk), nil
	}
	return none, fmt.Errorf("-compress must be none, int8 or topk, got %q", compress)
}

// mnistShard generates a private n-example MNIST shard from seed.
func mnistShard(n int, seed int64) (*securetf.Tensor, *securetf.Tensor, error) {
	fs := securetf.NewMemFS()
	if err := securetf.GenerateMNIST(fs, "shard", n, 0, seed); err != nil {
		return nil, nil, err
	}
	return securetf.LoadMNIST(fs, "shard/train-images-idx3-ubyte", "shard/train-labels-idx1-ubyte")
}

// randomBytes draws n bytes from crypto/rand, whose Read fills the whole
// slice and never returns an error.
func randomBytes(n int) []byte {
	b := make([]byte, n)
	rand.Read(b)
	return b
}

// serviceNames lists the TLS names the session's certificate must cover
// for a gateway listening on listen: the fixed service names plus the
// listen host, when it names one (an IP literal becomes an IP SAN).
func serviceNames(listen string) ([]string, error) {
	host, _, err := net.SplitHostPort(listen)
	if err != nil {
		return nil, fmt.Errorf("-listen: %w", err)
	}
	names := []string{"classifier", "localhost"}
	if host != "" {
		names = append(names, host)
	}
	return names, nil
}

// serveOptions is the serve command's parsed flag set; the gateway's
// share of it parses straight into the facade's config.
type serveOptions struct {
	gateway                    securetf.ModelServerConfig
	services                   []string // TLS names of the session certificate, from -listen
	casAddr, casInfo, trustdir string
	name, session, token       string
	spec, model, models        string
	autoscale                  bool
	autoscaleMax, canary       int
	selftest, once             bool
	timeout                    time.Duration
}

func serveCommand(fs *flag.FlagSet) func(io.Writer) error {
	var o serveOptions
	fs.StringVar(&o.casAddr, "cas", "", "CAS address (required)")
	fs.StringVar(&o.casInfo, "cas-info", "", "path to the CAS platform key PEM; its .measurement sibling must exist (required)")
	fs.StringVar(&o.trustdir, "trustdir", "", "directory where the CAS scans for platform keys (required)")
	fs.StringVar(&o.name, "name", "worker-platform", "this worker's platform name (must be unique per CAS)")
	fs.StringVar(&o.session, "session", "inference", "CAS session name to register and attest to")
	fs.StringVar(&o.token, "token", "", "session owner token (defaults to a random one)")
	fs.StringVar(&o.spec, "spec", "densenet", "synthetic model spec: densenet, inception_v3, inception_v4")
	fs.StringVar(&o.model, "model", "", "path to a Lite model file (overrides -spec)")
	fs.StringVar(&o.models, "models", "", "comma-separated specs to serve together (overrides -spec/-model)")
	fs.StringVar(&o.gateway.Addr, "listen", "127.0.0.1:0", "inference service address")
	fs.IntVar(&o.gateway.Threads, "threads", 1, "interpreter threads per replica")
	fs.IntVar(&o.gateway.Replicas, "replicas", 1, "interpreter replicas per model version")
	fs.IntVar(&o.gateway.MaxBatch, "max-batch", 1, "max rows coalesced into one batched invocation (1 disables)")
	fs.DurationVar(&o.gateway.BatchWindow, "batch-window", 0, "micro-batching window (defaults to 2ms when -max-batch > 1)")
	fs.BoolVar(&o.autoscale, "autoscale", false, "let the gateway autoscale replica counts from queue depth; idle models scale to zero")
	fs.IntVar(&o.autoscaleMax, "autoscale-max", 8, "replica ceiling per model under -autoscale")
	fs.IntVar(&o.canary, "canary", 0, "register each model's version 2 and canary it on this percent of unpinned traffic (1-99)")
	fs.BoolVar(&o.selftest, "selftest", false, "run one attested classification against the service, then keep serving")
	fs.BoolVar(&o.once, "once", false, "exit after startup (and -selftest if set) instead of serving forever")
	fs.DurationVar(&o.timeout, "timeout", 15*time.Second, "how long to retry attestation while the CAS learns our key")
	return func(w io.Writer) error {
		if o.gateway.Replicas < 1 {
			return fmt.Errorf("-replicas must be >= 1, got %d", o.gateway.Replicas)
		}
		if o.gateway.MaxBatch < 1 {
			return fmt.Errorf("-max-batch must be >= 1, got %d", o.gateway.MaxBatch)
		}
		if isSet(fs, "models") && strings.Trim(o.models, ", \t") == "" {
			return errors.New("-models lists no models")
		}
		if isSet(fs, "autoscale-max") && !o.autoscale {
			return errors.New("-autoscale-max only applies with -autoscale")
		}
		if o.autoscale {
			if o.autoscaleMax < 1 {
				return fmt.Errorf("-autoscale-max must be >= 1, got %d", o.autoscaleMax)
			}
			o.gateway.Autoscale = &securetf.ServingAutoscale{MaxReplicas: o.autoscaleMax}
		}
		if isSet(fs, "canary") && (o.canary < 1 || o.canary > 99) {
			return fmt.Errorf("-canary must be a traffic percent in [1, 99], got %d", o.canary)
		}
		var err error
		if o.services, err = serviceNames(o.gateway.Addr); err != nil {
			return err
		}
		if o.casAddr == "" || o.casInfo == "" || o.trustdir == "" {
			return errors.New("-cas, -cas-info and -trustdir are required")
		}
		if o.token == "" {
			o.token = hex.EncodeToString(randomBytes(16))
		}
		return o.serve(w)
	}
}

// serve runs the serve command: publish the platform key, register the
// session, attest, load the models through the shielded volume and serve
// them until interrupted (or, with -once, until startup is proven).
func (o *serveOptions) serve(w io.Writer) error {
	trust, casMeasurement, err := readCASInfo(o.casInfo)
	if err != nil {
		return err
	}

	platform, err := securetf.NewPlatform(o.name)
	if err != nil {
		return err
	}
	if err := publishPlatformKey(filepath.Join(o.trustdir, o.name+".pem"), platform); err != nil {
		return err
	}
	trust[o.name] = platform.AttestationKey()

	toServe, err := loadModels(o.models, o.spec, o.model)
	if err != nil {
		return err
	}

	container, err := securetf.Launch(securetf.ContainerConfig{
		Kind:          securetf.SconeHW,
		Platform:      platform,
		Image:         securetf.TFLiteImage(),
		HostFS:        securetf.NewMemFS(),
		FSShieldRules: []securetf.Rule{securetf.EncryptPrefix("volumes/models/")},
	})
	if err != nil {
		return err
	}
	defer container.Close()

	client, err := securetf.NewCASClientAt(container, o.casAddr, casMeasurement, trust)
	if err != nil {
		return err
	}
	if err := client.Register(&securetf.Session{
		Name:         o.session,
		OwnerToken:   o.token,
		Measurements: []string{container.Enclave().Measurement().Hex()},
		Volumes:      map[string][]byte{"models": randomBytes(32)},
		Services:     o.services,
	}); err != nil {
		return fmt.Errorf("register session: %w", err)
	}

	// The CAS learns our platform key asynchronously from the trust
	// directory; retry attestation until it does.
	deadline := time.Now().Add(o.timeout)
	var timing securetf.AttestTiming
	for {
		_, timing, err = container.Provision(client, o.session, "models")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("attestation did not succeed within %v: %w", o.timeout, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Fprintf(w, "attested to CAS in %v (init %v, quote %v, confirm %v, keys %v)\n",
		timing.Total(), timing.Initialization, timing.SendQuote, timing.WaitConfirmation, timing.ReceiveKeys)

	// Store every model under the provisioned encrypted volume and load
	// it back into the serving gateway through the shield, so the bytes
	// the interpreters see went through the attested provisioning path.
	gateway, err := securetf.ServeModels(container, o.gateway)
	if err != nil {
		return err
	}
	defer gateway.Close()
	stage := func(entry namedModel, version int) error {
		path := fmt.Sprintf("volumes/models/%s.v%d.stfl", entry.name, version)
		if err := securetf.WriteFile(container.FS(), path, entry.model.Marshal()); err != nil {
			return err
		}
		return gateway.LoadModel(entry.name, version, path)
	}
	for _, entry := range toServe {
		if err := stage(entry, 1); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "serving TLS inference on %s\n", gateway.Addr())
	if o.autoscale {
		fmt.Fprintf(w, "autoscale: up to %d replicas per model, idle models scale to zero\n", o.autoscaleMax)
	}
	for _, entry := range toServe {
		fmt.Fprintf(w, "  model %s@1 (%d weight bytes)\n", entry.name, entry.model.WeightBytes())
	}
	if o.canary > 0 {
		// Stage each model's next version through the same shielded
		// volume and canary it on the requested share of unpinned
		// traffic; the gateway promotes or rolls back on its own.
		for _, entry := range toServe {
			if err := stage(entry, 2); err != nil {
				return err
			}
			if err := gateway.StartCanary(entry.name, 2, securetf.CanaryConfig{Percent: o.canary}); err != nil {
				return err
			}
			st := gateway.Canary(entry.name)
			fmt.Fprintf(w, "canary: model %s@%d at %d%% of unpinned traffic (window %d)\n",
				entry.name, st.Candidate, st.Percent, st.Window)
		}
	}

	if o.selftest {
		if err := probe(w, platform, o.casAddr, casMeasurement, trust, o.session, gateway.Addr(), toServe); err != nil {
			return fmt.Errorf("selftest: %w", err)
		}
	}
	if !o.once {
		<-interrupted()
	}
	return nil
}

// trustScan is how often the CAS rescans its trust directory for new
// platform keys.
const trustScan = time.Second

// interrupted returns a channel that receives when the process is asked
// to stop (SIGINT or SIGTERM); cas and serve park on it once started. A
// test replaces it to stop them in-process.
var interrupted = func() <-chan os.Signal {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	return stop
}

// casCommand starts a CAS on an encrypted, rollback-protected store,
// publishes its platform key and measurement at -keyout and, until
// interrupted, trusts every platform key that appears in -trustdir.
func casCommand(fs *flag.FlagSet) func(io.Writer) error {
	listen := fs.String("listen", "127.0.0.1:0", "TCP address to serve on")
	store := fs.String("store", "cas-store", "directory for the encrypted, rollback-protected store")
	keyout := fs.String("keyout", "cas.pem", "where to write this CAS's platform key (PEM); its measurement goes to the .measurement file beside it")
	trustdir := fs.String("trustdir", "", "directory scanned for worker platform keys (PEM)")
	once := fs.Bool("once", false, "exit after startup instead of serving until interrupted")
	return func(w io.Writer) error {
		if err := os.MkdirAll(*store, 0o700); err != nil {
			return err
		}
		platform, err := securetf.NewPlatform("cas-platform")
		if err != nil {
			return err
		}
		server, err := securetf.StartCASWithTrust(platform, securetf.NewDirFS(*store), *listen, nil)
		if err != nil {
			return err
		}
		defer server.Close()
		measurement := server.Measurement().Hex()
		if err := os.MkdirAll(filepath.Dir(*keyout), 0o755); err != nil {
			return err
		}
		if err := publishPlatformKey(*keyout, platform); err != nil {
			return err
		}
		if err := os.WriteFile(*keyout+".measurement", []byte(measurement+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "CAS listening on %s\n", server.Addr())
		fmt.Fprintf(w, "enclave measurement: %s\n", measurement)
		fmt.Fprintf(w, "platform key: %s\n", *keyout)
		if *once {
			return nil
		}
		stop := interrupted()
		if *trustdir == "" {
			<-stop
			return nil
		}
		seen := make(map[string]bool)
		ticker := time.NewTicker(trustScan)
		defer ticker.Stop()
		for {
			if err := loadTrustDir(server, *trustdir, seen, w); err != nil {
				fmt.Fprintln(os.Stderr, "securetf-worker cas: trust scan:", err)
			}
			select {
			case <-ticker.C:
			case <-stop:
				return nil
			}
		}
	}
}

// publishPlatformKey writes p's platform key to path as PEM.
func publishPlatformKey(path string, p *securetf.Platform) error {
	keyPEM, err := securetf.MarshalPlatformKey(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, keyPEM, 0o644)
}

// readCASInfo loads what the cas command published at path: the CAS's
// platform key, as a trust store, and its measurement from the
// .measurement file beside it.
func readCASInfo(path string) (map[string]*ecdsa.PublicKey, string, error) {
	keyPEM, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	trust, err := securetf.ParsePlatformKeys(keyPEM)
	if err != nil {
		return nil, "", err
	}
	m, err := os.ReadFile(path + ".measurement")
	if err != nil {
		return nil, "", err
	}
	return trust, strings.TrimSpace(string(m)), nil
}

// loadTrustDir registers with server every platform key under dir not
// yet in seen. A file that is not a platform key is skipped.
func loadTrustDir(server *securetf.CAS, dir string, seen map[string]bool, w io.Writer) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".pem" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		keys, err := securetf.ParsePlatformKeys(data)
		if err != nil {
			continue
		}
		for name, key := range keys {
			if seen[name] {
				continue
			}
			seen[name] = true
			server.TrustPlatform(name, key)
			fmt.Fprintf(w, "trusting platform %q (from %s)\n", name, e.Name())
		}
	}
	return nil
}

// volumeKeyAt loads the snapshot volume key persisted at dir, drawing
// and persisting a fresh one when none exists yet — a resumed run must
// decrypt with the exact key the interrupted run sealed with.
func volumeKeyAt(dir string, mustExist bool) (*securetf.VolumeKey, error) {
	path := filepath.Join(dir, "volume.key")
	if raw, err := os.ReadFile(path); err == nil {
		return securetf.VolumeKeyFromBytes(raw)
	} else if mustExist {
		return nil, fmt.Errorf("no snapshot volume key at %s: %w", path, err)
	}
	key, err := securetf.NewVolumeKey()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return key, os.WriteFile(path, key[:], 0o600)
}

// trainCommand stands up an in-process distributed training cluster —
// one enclave node per parameter-server shard and per worker — trains
// for the requested rounds under the chosen consistency policy and
// reports the per-round losses, the per-phase virtual-time breakdown
// and the per-shard push wire time the sharding exists to shrink.
func trainCommand(fs *flag.FlagSet) func(io.Writer) error {
	cfg := securetf.DistTrainConfig{
		NewModel:     func() securetf.Model { return securetf.NewMNISTCNN(1) },
		RoundTimeout: 60 * time.Second,
	}
	cfg.ShardData = func(worker int) (*securetf.Tensor, *securetf.Tensor, error) {
		return mnistShard(cfg.Rounds*cfg.BatchSize, int64(31+worker))
	}
	fs.IntVar(&cfg.Workers, "workers", 2, "training workers")
	fs.IntVar(&cfg.PSShards, "shards", 1, "parameter-server shards; one node and one listener per shard")
	fs.IntVar(&cfg.Rounds, "rounds", 4, "synchronous training rounds per worker")
	fs.IntVar(&cfg.BatchSize, "batch", 50, "per-worker minibatch size")
	fs.Float64Var(&cfg.LR, "lr", 0.01, "learning rate")
	fs.BoolVar(&cfg.TLS, "tls", true, "route parameter traffic through the network shield's TLS")
	fs.IntVar(&cfg.Checkpoint.Every, "checkpoint-every", 0, "snapshot every parameter-server shard each N committed rounds")
	var (
		consistency = fs.String("consistency", "sync", "parameter-server commit policy: sync (barrier rounds) or async (apply-on-push, with -staleness)")
		staleness   = fs.Int("staleness", 8, "async staleness bound K in variable versions; -1 for unbounded (with -consistency async)")
		compress    = fs.String("compress", "none", "gradient codec on the push path: none, int8 (per-tensor symmetric quantization) or topk (with -topk)")
		topk        = fs.Float64("topk", 0.05, "top-k fraction of gradient entries pushed, in (0, 1] (with -compress topk)")
		chaosPlan   = fs.String("chaos-plan", "", "deterministic fault schedule, e.g. 'kill:w1@r2+rejoin1;restart:ps0@r2'")
		ckptDir     = fs.String("checkpoint-dir", "", "host directory the encrypted snapshots and volume key persist to (with -checkpoint-every)")
		resumeFrom  = fs.String("resume-from", "", "host directory of a previous run's -checkpoint-dir to resume training from")
	)
	return func(w io.Writer) error {
		if cfg.BatchSize < 1 {
			return fmt.Errorf("-batch must be >= 1, got %d", cfg.BatchSize)
		}
		if !(cfg.LR > 0) {
			return fmt.Errorf("-lr must be > 0, got %g", cfg.LR)
		}
		switch *consistency {
		case "sync":
			if isSet(fs, "staleness") {
				return errors.New("-staleness only applies with -consistency async; sync rounds have no staleness bound")
			}
			cfg.Consistency = securetf.SyncConsistency()
		case "async":
			cfg.Consistency = securetf.AsyncConsistency(*staleness)
		default:
			return fmt.Errorf("-consistency must be sync or async, got %q", *consistency)
		}
		var err error
		if cfg.Compression, err = codecFlag(fs, *compress, *topk); err != nil {
			return err
		}
		if isSet(fs, "checkpoint-every") && cfg.Checkpoint.Every < 1 {
			return fmt.Errorf("-checkpoint-every must be >= 1, got %d", cfg.Checkpoint.Every)
		}
		if isSet(fs, "checkpoint-dir") && cfg.Checkpoint.Every < 1 {
			return errors.New("-checkpoint-dir only applies with -checkpoint-every")
		}
		if isSet(fs, "resume-from") && *resumeFrom == "" {
			return errors.New("-resume-from names no directory")
		}
		if *chaosPlan != "" {
			if cfg.Chaos, err = securetf.ParseFaultPlan(*chaosPlan); err != nil {
				return fmt.Errorf("-chaos-plan: %w", err)
			}
			if cfg.Chaos.HasKind(securetf.FaultKillWorker) || cfg.Chaos.HasKind(securetf.FaultStallWorker) {
				// Dead and stalled workers are detected by the round timeout, so
				// the wall-clock wait per shrunk round is exactly this budget.
				cfg.RoundTimeout = 2 * time.Second
			}
		}
		fmt.Fprintf(w, "training cluster: %d workers, %d parameter-server shards (TLS %v, %v, compress %v)\n",
			cfg.Workers, cfg.PSShards, cfg.TLS, cfg.Consistency, cfg.Compression)
		if dir := *ckptDir; dir != "" || *resumeFrom != "" {
			if *resumeFrom != "" {
				dir = *resumeFrom
				cfg.Resume = true
			}
			// Snapshots persist to a host directory: the shard containers
			// write through the file-system shield, so the directory only
			// ever holds encrypted, authenticated bytes plus the volume key.
			if cfg.Checkpoint.Key, err = volumeKeyAt(dir, *resumeFrom != ""); err != nil {
				return err
			}
			cfg.Checkpoint.FS = securetf.NewDirFS(dir)
			fmt.Fprintf(w, "checkpoint volume: %s\n", dir)
		}
		res, err := securetf.TrainDistributed(cfg)
		if err != nil {
			return err
		}
		reportTraining(w, res, cfg.Chaos != nil)
		return nil
	}
}

// reportTraining prints a finished training job's trajectory and costs.
func reportTraining(w io.Writer, res *securetf.DistTrainResult, chaos bool) {
	// Under churn the workers' loss slices cover different round subsets,
	// so a per-round mean only lines up when every worker ran every
	// round; otherwise report per-worker trajectories.
	steps := len(res.Losses[0])
	aligned := true
	for _, ls := range res.Losses {
		if len(ls) != steps {
			aligned = false
			break
		}
	}
	if aligned {
		for r := 0; r < steps; r++ {
			var mean float64
			for worker := range res.Losses {
				mean += res.Losses[worker][r]
			}
			fmt.Fprintf(w, "round %d: mean loss %.4f\n", res.Rounds-steps+r+1, mean/float64(len(res.Losses)))
		}
	} else {
		for worker, ls := range res.Losses {
			if len(ls) == 0 {
				fmt.Fprintf(w, "worker %d: killed before its first round\n", worker)
				continue
			}
			fmt.Fprintf(w, "worker %d: %d rounds, final loss %.4f\n", worker, len(ls), ls[len(ls)-1])
		}
	}
	if chaos {
		fmt.Fprintf(w, "chaos: %d evictions, %d rejoins, %d shrunk rounds, %d dropped pushes — all %d rounds committed\n",
			res.Evictions, res.Rejoins, res.ShrunkRounds, res.DroppedPushes, res.Rounds)
	}
	fmt.Fprintf(w, "breakdown (max over workers): pull %v, compute %v, push %v\n",
		res.Breakdown.Pull, res.Breakdown.Compute, res.Breakdown.Push)
	fmt.Fprintf(w, "push wire per shard per round: %v\n", res.PushWirePerShard)
	fmt.Fprintf(w, "push wire bytes (total): %d\n", res.PushBytes)
	if res.StalenessRetries > 0 {
		fmt.Fprintf(w, "staleness-bound retries: %d\n", res.StalenessRetries)
	}
	fmt.Fprintf(w, "end-to-end training latency (virtual): %v\n", res.Latency)
}

// federatedCommand stands up an in-process federated job — an aggregator
// enclave plus the simulated client population on virtual clocks — and
// reports the round accounting and the masked uplink volume the codec
// exists to shrink. The aggregator never sees an unmasked update; it
// only learns the quorum sum.
func federatedCommand(fs *flag.FlagSet) func(io.Writer) error {
	cfg := securetf.FederatedConfig{
		LocalSteps: 2,
		BatchSize:  20,
		LocalLR:    0.05,
		Seed:       42,
		NewModel:   func() securetf.Model { return securetf.NewMNISTMLP(3) },
	}
	cfg.ShardData = func(client int) (*securetf.Tensor, *securetf.Tensor, error) {
		return mnistShard(cfg.LocalSteps*cfg.BatchSize, int64(131+client))
	}
	fs.IntVar(&cfg.Clients, "clients", 8, "client population size")
	fs.IntVar(&cfg.Quorum, "quorum", 0, "accepted uploads that close a round; 0 means every sampled client")
	fs.Float64Var(&cfg.SampleFraction, "sample-frac", 1, "fraction of the population sampled into each round's cohort, in (0, 1]")
	fs.IntVar(&cfg.Rounds, "rounds", 3, "FedAvg rounds")
	compress := fs.String("compress", "none", "masked uplink codec: none, int8 (16-bit ring) or topk (with -topk)")
	topk := fs.Float64("topk", 0.1, "shared pseudo-random coordinate fraction uploaded per variable, in (0, 1] (with -compress topk)")
	return func(w io.Writer) error {
		if cfg.Clients < 1 {
			return fmt.Errorf("-clients must be >= 1, got %d", cfg.Clients)
		}
		if !(cfg.SampleFraction > 0 && cfg.SampleFraction <= 1) {
			return fmt.Errorf("-sample-frac must be in (0, 1], got %g", cfg.SampleFraction)
		}
		if cfg.Rounds < 1 {
			return fmt.Errorf("-rounds must be >= 1, got %d", cfg.Rounds)
		}
		sampled := int(math.Ceil(cfg.SampleFraction * float64(cfg.Clients)))
		if cfg.Quorum == 0 {
			cfg.Quorum = sampled
		}
		if cfg.Quorum < 1 || cfg.Quorum > sampled {
			return fmt.Errorf("-quorum %d exceeds the %d clients sampled per round (-clients %d at -sample-frac %g)",
				cfg.Quorum, sampled, cfg.Clients, cfg.SampleFraction)
		}
		var err error
		if cfg.Compression, err = codecFlag(fs, *compress, *topk); err != nil {
			return err
		}
		fmt.Fprintf(w, "federated job: %d clients, sample fraction %g, quorum %d, %d rounds (compress %v)\n",
			cfg.Clients, cfg.SampleFraction, cfg.Quorum, cfg.Rounds, cfg.Compression)
		res, err := securetf.TrainFederated(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "rounds committed: %d (accepted %d masked uploads, refused %d late, %d dropout seed reveals)\n",
			res.Rounds, res.Accepted, res.Refusals, res.Reveals)
		fmt.Fprintf(w, "masked uplink bytes (total): %d\n", res.UplinkBytes)
		fmt.Fprintf(w, "end-to-end federated latency (virtual): %v\n", res.Latency)
		return nil
	}
}

func routerCommand(fs *flag.FlagSet) func(io.Writer) error {
	nodes := fs.Int("nodes", 2, "gateway nodes in the fleet")
	graph := fs.Bool("graph", false, "compile a pipeline inference graph across the fleet and run a request through it")
	return func(w io.Writer) error {
		if *nodes < 1 {
			return fmt.Errorf("-nodes must be >= 1, got %d", *nodes)
		}
		return runRouter(w, *nodes, *graph)
	}
}

// runRouter stands up an in-process serving fleet — nodeCount gateway
// containers on one platform behind a router that verifies the
// model→node placement at startup and signs it for clients — then
// drives traffic through it and reports the spread. With withGraph, a
// pre → digits → post pipeline graph spanning the fleet is compiled
// against the placement and exercised in a single client call, with the
// router's per-step virtual-time attribution printed.
func runRouter(w io.Writer, nodeCount int, withGraph bool) error {
	fmt.Fprintf(w, "router fleet: %d gateway nodes (graph: %v)\n", nodeCount, withGraph)
	platform, err := securetf.NewPlatform("router-fleet")
	if err != nil {
		return err
	}
	launch := func() (*securetf.Container, error) {
		return securetf.Launch(securetf.ContainerConfig{
			Kind:     securetf.SconeHW,
			Platform: platform,
			Image:    securetf.TFLiteImage(),
			HostFS:   securetf.NewMemFS(),
		})
	}
	// host registers a fixed-weight scaled-identity model over 10 classes
	// on gw; scaled identities compose, so pipeline steps verifiably
	// multiply (pre 2 × digits 1 × post 4).
	scales := map[string]float32{"digits": 1, "pre": 2, "post": 4}
	host := func(gw *securetf.ModelServer, name string) error {
		const k = 10
		vals := make([]float32, k*k)
		for i := 0; i < k; i++ {
			vals[i*k+i] = scales[name]
		}
		wt, err := securetf.TensorFromFloats(securetf.Shape{k, k}, vals)
		if err != nil {
			return err
		}
		g := securetf.NewGraph()
		x := g.Placeholder("in", securetf.Float32, securetf.Shape{-1, k})
		y := g.MatMul(x, g.Const("w", wt))
		frozen := &securetf.FrozenModel{Graph: g, Input: x, Output: y}
		m, err := frozen.ConvertToLite(securetf.ConvertOptions{})
		if err != nil {
			return err
		}
		return gw.Register(name, 1, m)
	}

	nodes := make([]securetf.RouterNode, nodeCount)
	for i := 0; i < nodeCount; i++ {
		c, err := launch()
		if err != nil {
			return err
		}
		defer c.Close()
		gw, err := securetf.ServeModels(c, securetf.ModelServerConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		defer gw.Close()
		// Every node serves digits; a graph's first and last stages live
		// on the fleet's first and last nodes.
		models := []string{"digits"}
		if withGraph && i == 0 {
			models = append(models, "pre")
		}
		if withGraph && i == nodeCount-1 {
			models = append(models, "post")
		}
		for _, name := range models {
			if err := host(gw, name); err != nil {
				return err
			}
		}
		nodes[i] = securetf.RouterNode{Name: fmt.Sprintf("node-%d", i), Addr: gw.Addr(), Models: models}
	}

	var graphs []securetf.GraphSpec
	if withGraph {
		graphs = []securetf.GraphSpec{{
			Name: "pipeline",
			Nodes: map[string]securetf.GraphNode{
				"root": {Kind: securetf.GraphSequence, Steps: []securetf.GraphStep{
					{Name: "pre", Model: "pre"},
					{Name: "digits", Model: "digits"},
					{Name: "post", Model: "post"},
				}},
			},
		}}
	}
	routerC, err := launch()
	if err != nil {
		return err
	}
	defer routerC.Close()
	rt, err := securetf.ServeRouter(routerC, securetf.RouterConfig{
		Addr:   "127.0.0.1:0",
		Nodes:  nodes,
		Graphs: graphs,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	for _, n := range rt.Manifest().Nodes {
		fmt.Fprintf(w, "placement verified: %s at %s serves %s\n", n.Name, n.Addr, strings.Join(n.Models, ", "))
	}

	clientC, err := launch()
	if err != nil {
		return err
	}
	defer clientC.Close()
	expectGraphs := []string(nil)
	if withGraph {
		expectGraphs = []string{"pipeline"}
	}
	cl, err := securetf.DialRouter(clientC, securetf.RouterClientConfig{
		Addr:         rt.Addr(),
		VerifyKey:    rt.ManifestKey().Public(),
		ExpectModels: []string{"digits"},
		ExpectGraphs: expectGraphs,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Fprintln(w, "client dialed: signed placement manifest verified against the pinned key")

	input := securetf.RandNormal(securetf.Shape{1, 10}, 1, 7)
	const requests = 32
	for i := 0; i < requests; i++ {
		if _, err := cl.Classify("digits", input); err != nil {
			return err
		}
	}
	for _, nm := range rt.Metrics().Nodes {
		fmt.Fprintf(w, "spread: %s served %d of %d requests (weight %d)\n", nm.Name, nm.Requests, requests, nm.Weight)
	}

	if withGraph {
		out, _, vt, err := cl.InferTimed("pipeline", 0, input)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "graph pipeline: 3 steps in one call, output scale %.0fx, virtual service time %v\n",
			out.Floats()[0]/input.Floats()[0], vt)
		traces := rt.Traces("pipeline")
		for _, st := range traces[len(traces)-1].Steps {
			fmt.Fprintf(w, "  step %-6s model %-6s on %-7s %v\n", st.Step, st.Model, st.Node, st.Vtime)
		}
	}
	return nil
}

// probe runs one classification per served model through a second
// attested container in this process, exercising the full CAS → TLS →
// classify path. The probe container reuses the worker's platform (the
// CAS already trusts its key) and image (so the session's measurement
// policy admits it).
func probe(w io.Writer, platform *securetf.Platform, casAddr, casMeasurement string,
	trust map[string]*ecdsa.PublicKey, session, svcAddr string, served []namedModel) error {
	probeC, err := securetf.Launch(securetf.ContainerConfig{
		Kind:     securetf.SconeHW,
		Platform: platform,
		Image:    securetf.TFLiteImage(),
		HostFS:   securetf.NewMemFS(),
	})
	if err != nil {
		return err
	}
	defer probeC.Close()
	client, err := securetf.NewCASClientAt(probeC, casAddr, casMeasurement, trust)
	if err != nil {
		return err
	}
	if _, _, err := probeC.Provision(client, session, "models"); err != nil {
		return fmt.Errorf("probe attestation: %w", err)
	}
	cl, err := securetf.DialModelServer(probeC, securetf.ModelClientConfig{
		Addr: svcAddr, ServerName: "classifier",
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, entry := range served {
		input, err := modelInput(entry.model)
		if err != nil {
			return err
		}
		classes, err := cl.Classify(entry.name, input)
		if err != nil {
			return fmt.Errorf("model %s: %w", entry.name, err)
		}
		fmt.Fprintf(w, "selftest: classified one input over shielded TLS → model %s class %d\n", entry.name, classes[0])
	}
	return nil
}

// modelInput builds a single-row random input matching the model's
// input tensor shape.
func modelInput(m *securetf.LiteModel) (*securetf.Tensor, error) {
	if len(m.Inputs) == 0 {
		return nil, errors.New("model has no inputs")
	}
	shape := securetf.Shape{1}
	for _, d := range m.Tensors[m.Inputs[0]].Shape[1:] {
		shape = append(shape, d)
	}
	return securetf.RandNormal(shape, 1, 42), nil
}

// namedModel is one model to serve, keyed by its registry name.
type namedModel struct {
	name  string
	model *securetf.LiteModel
}

// loadModel loads a Lite model from disk, or synthesizes the named spec.
func loadModel(spec, path string) (*securetf.LiteModel, error) {
	if path != "" {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return securetf.UnmarshalLiteModel(blob)
	}
	for _, s := range securetf.PaperModels() {
		if strings.EqualFold(s.Name, spec) {
			return securetf.BuildInferenceModel(s), nil
		}
	}
	return nil, fmt.Errorf("unknown model spec %q", spec)
}

// loadModels resolves the serving set: the -models list when given,
// otherwise the single -spec / -model pair under the spec's name.
func loadModels(modelSet, spec, path string) ([]namedModel, error) {
	if modelSet == "" {
		m, err := loadModel(spec, path)
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(spec)
		if path != "" {
			name = strings.ToLower(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)))
		}
		return []namedModel{{name: name, model: m}}, nil
	}
	var out []namedModel
	seen := make(map[string]bool)
	for _, name := range strings.Split(modelSet, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate model %q in -models", name)
		}
		seen[name] = true
		m, err := loadModel(name, "")
		if err != nil {
			return nil, err
		}
		out = append(out, namedModel{name: name, model: m})
	}
	if len(out) == 0 {
		return nil, errors.New("-models lists no models")
	}
	return out, nil
}
