package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/cas/ias"
	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/sgx"
)

// ElasticScaling reproduces design challenge ➍ (§3.2): a public-cloud
// autoscaler spawns n new service containers in response to load, and
// each must be attested before it may handle requests. The function
// returns the total attestation latency of the wave through the local
// CAS and through the traditional IAS flow — the gap that makes IAS
// "impractical in this setting".
func ElasticScaling(n int) (casTotal, iasTotal time.Duration, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("experiments: elastic scaling needs n > 0, got %d", n)
	}
	casWave, iasWave, err := attestWaves(n)
	if err != nil {
		return 0, 0, err
	}
	for i := range casWave {
		casTotal += casWave[i].Total()
		iasTotal += iasWave[i].Total()
	}
	return casTotal, iasTotal, nil
}

// attestWaves attests a wave of n fresh containers, each through the CAS
// and through the traditional IAS flow, and returns the legs of every
// attestation, in order. One worker platform hosts the wave (the paper
// scales containers, not machines).
func attestWaves(n int) (casWave, iasWave []cas.AttestTiming, err error) {
	appImage := sgx.SyntheticImage("securetf-worker", 4<<20, 8<<20)
	secrets := map[string][]byte{"model-key": make([]byte, 32)}
	workerPlat, err := newPlatform("autoscale-node")
	if err != nil {
		return nil, nil, err
	}
	casServer, connect, err := startCAS(&cas.Session{
		Name:         "autoscale",
		OwnerToken:   "tok",
		Measurements: []string{appImage.Measure().Hex()},
		Secrets:      secrets,
	}, workerPlat)
	if err != nil {
		return nil, nil, err
	}
	defer casServer.Close()
	iasPlat, err := newPlatform("key-server")
	if err != nil {
		return nil, nil, err
	}
	iasServer, err := ias.NewServer(ias.ServerConfig{
		Platform:         iasPlat,
		TrustedPlatforms: core.TrustedKeys(workerPlat),
		Secrets:          secrets,
	})
	if err != nil {
		return nil, nil, err
	}
	defer iasServer.Close()
	for i := 0; i < n; i++ {
		enclave, err := workerPlat.CreateEnclave(appImage, sgx.ModeHW)
		if err != nil {
			return nil, nil, err
		}
		client, err := connect(enclave)
		if err != nil {
			return nil, nil, err
		}
		_, casTiming, err := client.Attest("autoscale")
		client.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: CAS attest container %d: %w", i, err)
		}
		_, iasTiming, err := (&ias.Client{Enclave: enclave, Addr: iasServer.Addr()}).Attest()
		enclave.Destroy()
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: IAS attest container %d: %w", i, err)
		}
		casWave, iasWave = append(casWave, casTiming), append(iasWave, iasTiming)
	}
	return casWave, iasWave, nil
}

// PrintElasticScaling renders the elastic-scaling comparison.
func PrintElasticScaling(w io.Writer, n int, casTotal, iasTotal time.Duration) {
	fmt.Fprintf(w, "Elastic scaling — attesting a wave of %d new containers (challenge ➍)\n", n)
	fmt.Fprintf(w, "%-14s %16s %18s\n", "flow", "total (ms)", "per container (ms)")
	fmt.Fprintf(w, "%-14s %16.1f %18.1f\n", "IAS", float64(iasTotal)/1e6, float64(iasTotal)/1e6/float64(n))
	fmt.Fprintf(w, "%-14s %16.1f %18.1f\n", "secureTF CAS", float64(casTotal)/1e6, float64(casTotal)/1e6/float64(n))
	if casTotal > 0 {
		fmt.Fprintf(w, "speedup: %.1fx\n", float64(iasTotal)/float64(casTotal))
	}
}
