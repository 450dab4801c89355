// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each FigureN function runs the corresponding workload
// on the simulation substrate and returns the series the paper plots;
// Print helpers render them as text tables. The cmd/securetf-bench
// binary and the repository-root benchmarks drive these harnesses.
//
// The distributed-training figures (8, 8-shards, 8-compress, 8-async,
// 9) are clients of the public securetf package: every parameter-server
// shard and worker is put on its container by securetf.TrainDistributed
// or StartParameterServer/StartTrainingWorker, the same code the
// examples and securetf-worker run, so a cost-model change in the
// facade moves the figures and their CI gates with it. The TLS rows of
// Figures 8, 8-shards and 8-compress therefore attest every node to the
// job's CAS at set-up, which issues its TLS identity, and their Latency
// includes those attestations; the rows without TLS, and Figure 9,
// start no CAS.
//
// Absolute numbers come from the calibrated virtual-time cost model and
// are not expected to match the paper's testbed; the shape checks in
// experiments_test.go assert that orderings, overhead bands and
// crossovers hold.
package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/sgx"
)

// Config tunes experiment sizes so tests, benches and the CLI can trade
// fidelity for time.
type Config struct {
	// Runs is the number of classification runs averaged per data point
	// (the paper averages 1,000). Default 10.
	Runs int
	// Models selects the Figure 5/6 model specs. Defaults to the paper's
	// three.
	Models []models.InferenceSpec
	// Images is the Figure 7 batch size (the paper classifies 800).
	// Default 64.
	Images int
	// Steps is the Figure 8 training step count. Default 12.
	Steps int
	// BatchSize is the Figure 8 minibatch size (the paper uses 100).
	BatchSize int
	// Log, when set, receives progress lines.
	Log io.Writer
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if len(c.Models) == 0 {
		c.Models = models.PaperModels()
	}
	if c.Images <= 0 {
		c.Images = 64
	}
	if c.Steps <= 0 {
		c.Steps = 12
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// newPlatform builds a fresh platform with default calibration.
func newPlatform(name string) (*sgx.Platform, error) {
	return sgx.NewPlatform(name, sgx.DefaultParams())
}

// startCAS starts a CAS on a platform of its own that trusts the
// workers' platforms, with session registered by its owner. connect
// returns a client of it, bootstrapped, for an enclave on one of them.
func startCAS(session *cas.Session, workers ...*sgx.Platform) (server *cas.Server, connect func(*sgx.Enclave) (*cas.Client, error), err error) {
	casPlat, err := newPlatform("cas-node")
	if err != nil {
		return nil, nil, err
	}
	server, err = cas.NewServer(cas.ServerConfig{
		Platform:         casPlat,
		StoreFS:          fsapi.NewMem(),
		TrustedPlatforms: core.TrustedKeys(workers...),
	})
	if err != nil {
		return nil, nil, err
	}
	trust := core.TrustedKeys(append(workers, casPlat)...)
	connect = func(e *sgx.Enclave) (*cas.Client, error) {
		client, err := cas.NewClient(cas.ClientConfig{
			Enclave:        e,
			Addr:           server.Addr(),
			CASMeasurement: server.Measurement(),
			PlatformKeys:   trust,
		})
		if err != nil {
			return nil, err
		}
		return client, client.Bootstrap()
	}
	owner, err := connect(server.Enclave())
	if err == nil {
		err = owner.Register(session)
		owner.Close()
	}
	if err != nil {
		server.Close()
		return nil, nil, err
	}
	return server, connect, nil
}

// fig5Kinds are the five systems of Figure 5, in the paper's order.
func fig5Kinds() []core.RuntimeKind {
	return []core.RuntimeKind{
		core.RuntimeNativeMusl,
		core.RuntimeNativeGlibc,
		core.RuntimeSconeSIM,
		core.RuntimeSconeHW,
		core.RuntimeGraphene,
	}
}

// fmtDur renders a duration in milliseconds for tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// fmtDurS renders a duration in seconds for tables.
func fmtDurS(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}
