package securetf

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/federated"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
)

// FederatedCoordinator runs FedAvg quorum rounds with pairwise-masked
// secure aggregation (the paper's §6.2 use case promoted to a
// first-class subsystem).
type FederatedCoordinator = federated.Coordinator

// FederatedClient is one simulated federated participant.
type FederatedClient = federated.Client

// FedCompression selects the federated uplink quantizer: the same
// policy type as the parameter-server gradient codecs, applied over
// integer rings, so the pairwise masks of secure aggregation cancel
// bit-exactly in the coordinator's sum.
type FedCompression = GradCompression

// Int8FedCompression quantizes updates to signed 8-bit steps of a
// public clip bound, carried in a 16-bit ring (~4× fewer uplink
// bytes).
func Int8FedCompression() FedCompression { return Int8GradCompression() }

// TopKFedCompression uploads only the round's shared pseudo-random
// fraction f ∈ (0, 1] of coordinates per variable; the pattern is
// derived from the round seed on both sides, so no index bytes travel
// (~1/f fewer uplink bytes). Unsent mass carries over in client-side
// error-feedback residuals.
func TopKFedCompression(f float64) FedCompression { return TopKGradCompression(f) }

// FederatedConfig configures TrainFederated, the one-call form of the
// paper's §6.2 federated-learning deployment: an aggregator node
// running FedAvg quorum rounds over a population of simulated clients
// with pairwise-masked secure aggregation. Masking is always on: no
// client uploads an update the aggregator could read on its own.
type FederatedConfig struct {
	// Kind selects the aggregator's runtime. Defaults to SconeHW.
	Kind RuntimeKind
	// Clients is the client population size N. Required, ≥ 1.
	Clients int
	// SampleFraction is the fraction of the population sampled into
	// each round's cohort, in (0, 1]. Zero samples everyone.
	SampleFraction float64
	// Quorum is the number of accepted uploads that completes a round;
	// stragglers past it are refused and retry next round. Required.
	Quorum int
	// Rounds is the number of FedAvg rounds. Required, ≥ 1.
	Rounds int
	// LocalSteps is each sampled client's local SGD step count per
	// round. Required, ≥ 1.
	LocalSteps int
	// BatchSize is the local minibatch size. Required, ≥ 1.
	BatchSize int
	// LocalLR is the client-side SGD learning rate. Required, > 0.
	LocalLR float64
	// Compression is the uplink codec. The zero value uploads exact
	// 64-bit fixed-point words.
	Compression FedCompression
	// Seed drives client sampling and the top-k coordinate patterns.
	Seed int64
	// Secret is the cohort masking secret shared by the clients and
	// withheld from the aggregator. Empty derives one from Seed — fine
	// for simulation; real deployments provision it out of band (the
	// federated_learning example uses CAS session secrets).
	Secret []byte
	// NewModel builds the model. TrainFederated calls it once: the
	// aggregator's initial variables come from its graph, and every
	// client opens its own session, with its own variables, over that
	// one graph, which they share read-only.
	NewModel func() Model
	// ShardData returns client id's private training shard.
	ShardData func(client int) (xs, ys *Tensor, err error)
	// StragglerFraction marks the trailing fraction of client ids as
	// stragglers: each round they finish StragglerDelay late, miss the
	// quorum and are refused. Zero disables straggling.
	StragglerFraction float64
	// StragglerDelay is the stragglers' extra virtual latency per round
	// (default 1s when StragglerFraction > 0).
	StragglerDelay time.Duration
	// PayloadTap observes every accepted upload payload (round, client,
	// variable, raw bytes) — the hook the sum-only property tests use.
	// The bytes are the received frame's, which the aggregator reuses:
	// copy what is kept.
	PayloadTap func(round uint64, client uint32, name string, payload []byte)
}

// FederatedResult reports a federated training job's outcome.
type FederatedResult struct {
	// Vars is the final global model.
	Vars map[string]*Tensor
	// Rounds is the number of committed rounds.
	Rounds int
	// Accepted counts accepted client uploads across all rounds.
	Accepted int
	// Refusals counts uploads refused at closed rounds (stragglers).
	Refusals int
	// Reveals counts the seed-reveal messages that resolved dropouts:
	// one a round from each survivor that paired with a dead cohort
	// member, however many seeds it carried.
	Reveals int
	// UplinkBytes totals the accepted upload payload bytes — the
	// quantity the uplink codec shrinks.
	UplinkBytes int64
	// Latency is the end-to-end virtual time: the maximum over the
	// aggregator and every client clock.
	Latency time.Duration
}

// StartFederatedAggregator starts a FedAvg coordinator inside an
// already-attested container, listening on addr (the manual form of
// TrainFederated's aggregator, for deployments that stand up their own
// CAS topology). Only the aggregator-side fields of cfg apply —
// Clients, SampleFraction, Quorum, Rounds, Compression, Seed,
// PayloadTap, and NewModel for the initial variables.
// It returns the coordinator and the bound address clients dial.
func StartFederatedAggregator(c *Container, addr string, cfg FederatedConfig) (*FederatedCoordinator, string, error) {
	if c == nil {
		return nil, "", errors.New("securetf: StartFederatedAggregator requires a container")
	}
	if cfg.NewModel == nil {
		return nil, "", errors.New("securetf: FederatedConfig.NewModel is required")
	}
	return startFederatedAggregator(c, addr, cfg, cfg.NewModel())
}

// startFederatedAggregator is StartFederatedAggregator with the model
// already built.
func startFederatedAggregator(c *Container, addr string, cfg FederatedConfig, model Model) (*FederatedCoordinator, string, error) {
	ln, err := c.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("securetf: aggregator listen: %w", err)
	}
	coord, err := federated.NewCoordinator(federated.CoordinatorConfig{
		Listener:       ln,
		Vars:           InitialVariables(model),
		Clients:        cfg.Clients,
		SampleFraction: cfg.SampleFraction,
		Quorum:         cfg.Quorum,
		Rounds:         cfg.Rounds,
		Codec:          cfg.Compression,
		Seed:           cfg.Seed,
		Meter:          c.Platform().Meter(),
		Tap:            cfg.PayloadTap,
	})
	if err != nil {
		ln.Close()
		return nil, "", err
	}
	return coord, ln.Addr().String(), nil
}

// FederatedPeerSpec configures one manually-started federated client.
type FederatedPeerSpec struct {
	// ID is this client's index in the population, in [0, Population).
	ID int
	// Addr is the aggregator address. Required.
	Addr string
	// ServerName is the aggregator's TLS identity, used when the
	// container's network shield is provisioned (default "aggregator").
	ServerName string
	// Model is this client's local replica (build from the same seed as
	// the aggregator's initial variables). Required.
	Model Model
	// XS and YS are the client's private data shard. Required.
	XS, YS *Tensor
	// BatchSize and LocalSteps shape each round's local training.
	BatchSize  int
	LocalSteps int
	// LocalLR is the local SGD learning rate.
	LocalLR float64
	// Compression must match the aggregator's codec (the handshake
	// rejects mismatches).
	Compression FedCompression
	// Population is the total client count N.
	Population int
	// Secret is the cohort masking secret every client shares and the
	// aggregator never sees. Required.
	Secret []byte
}

// StartFederatedClient connects a federated participant inside a
// container to an aggregator. Dial goes through the container, so the
// network shield's TLS applies and the client talks only to the
// attested aggregator identity. Call Run on the returned client; it
// participates in rounds until the aggregator reports training
// complete.
func StartFederatedClient(c *Container, spec FederatedPeerSpec) (*FederatedClient, error) {
	if c == nil {
		return nil, errors.New("securetf: StartFederatedClient requires a container")
	}
	plan, err := dist.NewPlan(spec.Model)
	if err != nil {
		return nil, fmt.Errorf("securetf: start federated client %d: %w", spec.ID, err)
	}
	serverName := cmp.Or(spec.ServerName, "aggregator")
	dial := func(network, addr string) (net.Conn, error) { return c.Dial(network, addr, serverName) }
	return newFederatedClient(spec, plan, dial, c.Platform().Meter(), nil, nil)
}

// newFederatedClient is the one mapping from a peer spec to a client,
// for a container's (its dial and meter, free-threaded) and
// for one of TrainFederated's simulated population, stragglers delayed
// and every client taking its turns at ts. The client trains through
// plan; spec.Model is not read.
func newFederatedClient(spec FederatedPeerSpec, plan *dist.Plan, dial func(network, addr string) (net.Conn, error),
	meter sgx.Meter, delay func(round uint64) time.Duration, ts *federated.Turnstile) (*FederatedClient, error) {
	cl, err := federated.NewClient(federated.ClientConfig{
		ID:         spec.ID,
		Addr:       spec.Addr,
		Dial:       dial,
		Plan:       plan,
		XS:         spec.XS,
		YS:         spec.YS,
		BatchSize:  spec.BatchSize,
		LocalSteps: spec.LocalSteps,
		LocalLR:    spec.LocalLR,
		Codec:      spec.Compression,
		Population: spec.Population,
		Secret:     spec.Secret,
		Meter:      meter,
		Delay:      delay,
		Turnstile:  ts,
	})
	if err != nil {
		return nil, fmt.Errorf("securetf: start federated client %d: %w", spec.ID, err)
	}
	return cl, nil
}

// TrainFederated runs a complete federated job: it launches the
// aggregator in an enclave container, simulates the client population
// on virtual clocks under a discrete-event scheduler (so runs are
// bit-reproducible at a fixed seed), and trains for the configured
// rounds. The scheduler orders the clients' network exchanges only;
// their local training and masking run concurrently, on as many
// processors as GOMAXPROCS allows. Clients are plain processes — in this architecture the
// enclave protects the aggregator, while clients protect themselves by
// never uploading an unmasked update.
func TrainFederated(cfg FederatedConfig) (*FederatedResult, error) {
	if cfg.NewModel == nil || cfg.ShardData == nil {
		return nil, errors.New("securetf: FederatedConfig.NewModel and ShardData are required")
	}
	if cfg.Kind == 0 {
		cfg.Kind = SconeHW
	}
	if cfg.StragglerFraction < 0 || cfg.StragglerFraction > 1 {
		return nil, fmt.Errorf("securetf: straggler fraction %v outside [0, 1]", cfg.StragglerFraction)
	}
	if cfg.StragglerDelay == 0 {
		cfg.StragglerDelay = time.Second
	}
	secret := cfg.Secret
	if len(secret) == 0 {
		key := seccrypto.HKDF([]byte(fmt.Sprintf("seed %d", cfg.Seed)), "securetf-fed-secret", "cohort")
		secret = key[:]
	}

	platform, err := NewPlatform("fed-aggregator")
	if err != nil {
		return nil, err
	}
	agg, err := Launch(ContainerConfig{
		Kind:     cfg.Kind,
		Platform: platform,
		Image:    TensorFlowImage(),
		HostFS:   NewMemFS(),
	})
	if err != nil {
		return nil, err
	}
	defer agg.Close()
	model := cfg.NewModel()
	coord, addr, err := startFederatedAggregator(agg, "127.0.0.1:0", cfg, model)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	plan, err := dist.NewPlan(model)
	if err != nil {
		return nil, fmt.Errorf("securetf: federated model: %w", err)
	}

	stragglers := int(float64(cfg.Clients) * cfg.StragglerFraction)
	ts := federated.NewTurnstile()
	clients := make([]*federated.Client, cfg.Clients)
	clocks := make([]*vtime.Clock, cfg.Clients)
	for id := 0; id < cfg.Clients; id++ {
		xs, ys, err := cfg.ShardData(id)
		if err != nil {
			return nil, fmt.Errorf("securetf: client %d shard: %w", id, err)
		}
		clocks[id] = &vtime.Clock{}
		var delay func(round uint64) time.Duration
		if id >= cfg.Clients-stragglers {
			delay = func(uint64) time.Duration { return cfg.StragglerDelay }
		}
		c, err := newFederatedClient(FederatedPeerSpec{
			ID:          id,
			Addr:        addr,
			XS:          xs,
			YS:          ys,
			BatchSize:   cfg.BatchSize,
			LocalSteps:  cfg.LocalSteps,
			LocalLR:     cfg.LocalLR,
			Compression: cfg.Compression,
			Population:  cfg.Clients,
			Secret:      secret,
		}, plan, net.Dial, agg.Platform().Meter().On(clocks[id]), delay, ts)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[id] = c
		// The full roster joins before any client runs, so the
		// discrete-event schedule starts against the complete
		// participant set.
		ts.Join(id, clocks[id])
	}

	var wg sync.WaitGroup
	errs := make([]error, cfg.Clients)
	for id, c := range clients {
		wg.Add(1)
		go func(id int, c *federated.Client) {
			defer wg.Done()
			errs[id] = c.Run()
		}(id, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	stats := coord.Stats()
	res := &FederatedResult{
		Vars:        coord.Vars(),
		Rounds:      stats.Rounds,
		Accepted:    stats.Accepted,
		Refusals:    stats.Refusals,
		Reveals:     stats.Reveals,
		UplinkBytes: stats.UplinkBytes,
		Latency:     agg.Clock().Now(),
	}
	for _, clock := range clocks {
		if t := clock.Now(); t > res.Latency {
			res.Latency = t
		}
	}
	return res, nil
}
