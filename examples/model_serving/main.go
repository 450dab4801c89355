// Model serving: the §4.2 classifier service grown into a secure,
// batched, multi-model gateway with a control plane. One shielded
// container hosts a versioned model registry and serves concurrent TLS
// traffic with micro-batching; new model versions are trained, loaded
// through the encrypted volume and rolled out as weighted canaries under
// sustained load. A deliberately heavy candidate is automatically rolled
// back by the gateway's p99/rejection comparison; a healthy candidate is
// automatically promoted — with retrying clients, zero requests fail
// either way.
//
// Run with:
//
//	go run ./examples/model_serving
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	securetf "github.com/securetf/securetf"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- The serving provider: CAS + one shielded service node. ---
	casPlatform, err := securetf.NewPlatform("cas-node")
	if err != nil {
		return err
	}
	cas, err := securetf.StartCAS(casPlatform, securetf.NewMemFS())
	if err != nil {
		return err
	}
	defer cas.Close()

	servicePlatform, err := securetf.NewPlatform("serving-node")
	if err != nil {
		return err
	}
	cas.TrustPlatform(servicePlatform.Name(), servicePlatform.AttestationKey())
	service, err := securetf.Launch(securetf.ContainerConfig{
		Kind:          securetf.SconeHW,
		Platform:      servicePlatform,
		Image:         securetf.TFLiteImage(),
		HostFS:        securetf.NewMemFS(),
		FSShieldRules: []securetf.Rule{securetf.EncryptPrefix("volumes/models/")},
	})
	if err != nil {
		return err
	}
	defer service.Close()

	volumeKey := make([]byte, 32)
	for i := range volumeKey {
		volumeKey[i] = byte(i * 7)
	}
	serviceCAS, err := securetf.NewCASClient(service, cas, casPlatform, servicePlatform)
	if err != nil {
		return err
	}
	if err := serviceCAS.Register(&securetf.Session{
		Name:         "serving",
		OwnerToken:   "owner",
		Measurements: []string{service.Enclave().Measurement().Hex()},
		Volumes:      map[string][]byte{"models": volumeKey},
		Services:     []string{"classifier", "localhost", "127.0.0.1"},
	}); err != nil {
		return err
	}
	if _, _, err := service.Provision(serviceCAS, "serving", "models"); err != nil {
		return err
	}
	fmt.Println("service attested: volume key + TLS identity provisioned ✔")

	// --- Train three model versions into the encrypted volume. ---
	// v1 is the incumbent MLP; v2 is a deliberately heavy CNN (far more
	// virtual compute per invoke — the "bad" candidate the canary should
	// catch); v3 is the same MLP trained longer (the healthy candidate).
	if err := securetf.GenerateMNIST(service.FS(), "mnist", 512, 128, 1); err != nil {
		return err
	}
	xs, ys, err := securetf.LoadMNIST(service.FS(),
		"mnist/train-images-idx3-ubyte", "mnist/train-labels-idx1-ubyte")
	if err != nil {
		return err
	}
	tx, ty, err := securetf.LoadMNIST(service.FS(),
		"mnist/t10k-images-idx3-ubyte", "mnist/t10k-labels-idx1-ubyte")
	if err != nil {
		return err
	}
	for _, vs := range []struct {
		version int
		model   securetf.Model
		steps   int
		label   string
	}{
		{1, securetf.NewMNISTMLP(1), 5, "mlp"},
		{2, securetf.NewMNISTCNN(1), 3, "heavy cnn"},
		{3, securetf.NewMNISTMLP(1), 40, "mlp, trained longer"},
	} {
		trained, err := securetf.Train(securetf.TrainConfig{
			Container: service,
			Model:     vs.model,
			XS:        xs, YS: ys,
			BatchSize: 100,
			Steps:     vs.steps,
			Optimizer: securetf.Adam{LR: 0.003},
		})
		if err != nil {
			return err
		}
		acc, err := trained.Accuracy(tx, ty)
		if err != nil {
			return err
		}
		frozen, err := trained.Freeze()
		if err != nil {
			return err
		}
		trained.Close()
		lite, err := frozen.ConvertToLite(securetf.ConvertOptions{})
		if err != nil {
			return err
		}
		// Models live in the CAS-keyed encrypted volume; the registry
		// reads them back through the shield (decrypt + verify).
		path := fmt.Sprintf("volumes/models/digits-v%d.stfl", vs.version)
		if err := securetf.WriteFile(service.FS(), path, lite.Marshal()); err != nil {
			return err
		}
		fmt.Printf("trained digits v%d (%s): test accuracy %.1f%% → %s\n",
			vs.version, vs.label, 100*acc, path)
	}

	// --- Serve: registry + replica pool + micro-batching. ---
	gateway, err := securetf.ServeModels(service, securetf.ModelServerConfig{
		Addr: "127.0.0.1:0",
		ServingConfig: securetf.ServingConfig{
			Replicas:    2,
			MaxBatch:    8,
			BatchWindow: 2 * time.Millisecond,
			QueueCap:    64,
		},
	})
	if err != nil {
		return err
	}
	defer gateway.Close()
	if err := gateway.LoadModel("digits", 1, "volumes/models/digits-v1.stfl"); err != nil {
		return err
	}
	// Tighten this model's admission queue below the client count, so a
	// candidate that can't keep up shows up as rejection pressure the
	// canary verdict reads directly.
	if err := gateway.SetQueueCap("digits", 4); err != nil {
		return err
	}
	fmt.Printf("gateway on %s serving digits@%d (queue cap %d for this model)\n",
		gateway.Addr(), gateway.ServingVersion("digits"), gateway.QueueCap("digits"))

	// --- A customer: attest, then keep up sustained traffic. ---
	customerPlatform, err := securetf.NewPlatform("customer-node")
	if err != nil {
		return err
	}
	cas.TrustPlatform(customerPlatform.Name(), customerPlatform.AttestationKey())
	customer, err := securetf.Launch(securetf.ContainerConfig{
		Kind:     securetf.SconeHW,
		Platform: customerPlatform,
		Image:    securetf.TFLiteImage(),
		HostFS:   securetf.NewMemFS(),
	})
	if err != nil {
		return err
	}
	defer customer.Close()
	customerCAS, err := securetf.NewCASClient(customer, cas, casPlatform, customerPlatform)
	if err != nil {
		return err
	}
	if _, _, err := customer.Provision(customerCAS, "serving", "models"); err != nil {
		return err
	}

	// Eight mutually-TLS clients with overload retries enabled — more
	// clients than the queue admits at once, so the gateway's admission
	// control genuinely pushes back under a bad canary; backoff + retry
	// means no request is ever lost to the rollout.
	const nClients = 8
	probe, err := securetf.SliceRows(tx, 0, 1)
	if err != nil {
		return err
	}
	clients := make([]*securetf.ModelClient, nClients)
	for i := range clients {
		cl, err := securetf.DialModelServer(customer, securetf.ModelClientConfig{
			Addr: gateway.Addr(), ServerName: "classifier",
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		cl.SetRetry(securetf.RetryPolicy{})
		clients[i] = cl
	}

	var (
		mu       sync.Mutex
		failures int
		requests int
		byVer    = map[int]int{}
	)
	record := func(ver int, err error) {
		mu.Lock()
		requests++
		if err != nil {
			failures++
		} else {
			byVer[ver]++
		}
		mu.Unlock()
	}
	// driveSerial sends n unpinned requests (version 0 — the gateway
	// routes them, which is exactly the traffic a canary samples from)
	// one at a time, so each request's virtual latency is its own model
	// version's compute cost: the signal the canary p99 comparison reads.
	driveSerial := func(n int) {
		for j := 0; j < n; j++ {
			_, ver, err := clients[j%nClients].Infer("digits", 0, probe)
			record(ver, err)
		}
	}
	// runCanary starts a weighted rollout and keeps traffic flowing until
	// the gateway reaches a verdict on its own.
	runCanary := func(candidate int, cfg securetf.CanaryConfig) (securetf.CanaryState, error) {
		if err := gateway.StartCanary("digits", candidate, cfg); err != nil {
			return securetf.CanaryState{}, err
		}
		for round := 0; round < 400; round++ {
			if state := gateway.Canary("digits"); state.Phase != securetf.CanaryActive {
				return state, nil
			}
			driveSerial(16)
		}
		return securetf.CanaryState{}, fmt.Errorf("canary of digits@%d never reached a verdict", candidate)
	}

	// Warm-up traffic gives the incumbent a latency baseline the canary
	// comparison can diff against.
	driveSerial(32)

	// --- Rollout 1: the heavy CNN. The gateway routes 25% of unpinned
	// traffic to digits@2, watches a 30-response window, sees the
	// candidate's p99 virtual latency blow past the incumbent's and
	// rolls back automatically. ---
	if err := gateway.LoadModel("digits", 2, "volumes/models/digits-v2.stfl"); err != nil {
		return err
	}
	verdict, err := runCanary(2, securetf.CanaryConfig{Percent: 25, Window: 30})
	if err != nil {
		return err
	}
	fmt.Printf("canary digits@2 at 25%%: %s after %d candidate responses (%s)\n",
		verdict.Phase, verdict.Observed, verdict.Reason)
	if verdict.Phase != securetf.CanaryRolledBack {
		return fmt.Errorf("heavy candidate was not rolled back: %+v", verdict)
	}
	if v := gateway.ServingVersion("digits"); v != 1 {
		return fmt.Errorf("serving version moved to %d after a rollback", v)
	}

	// --- Rollout 2: the better-trained MLP. Same policy, healthy
	// candidate — the gateway promotes it and digits@3 takes over
	// atomically (in-flight work finishes on the version it resolved). ---
	if err := gateway.LoadModel("digits", 3, "volumes/models/digits-v3.stfl"); err != nil {
		return err
	}
	verdict, err = runCanary(3, securetf.CanaryConfig{Percent: 25, Window: 30})
	if err != nil {
		return err
	}
	fmt.Printf("canary digits@3 at 25%%: %s after %d candidate responses\n",
		verdict.Phase, verdict.Observed)
	if verdict.Phase != securetf.CanaryPromoted {
		return fmt.Errorf("healthy candidate was not promoted: %+v", verdict)
	}
	if v := gateway.ServingVersion("digits"); v != 3 {
		return fmt.Errorf("serving version is %d after promotion, want 3", v)
	}
	driveSerial(16) // post-promotion traffic lands on digits@3

	// --- Overload burst: the operator tightens the queue to a single
	// slot live (SetQueueCap again — no restart, no redeploy), then
	// 32 clients hammer it at once — half of them pinned tenants still
	// sending big batches to the withdrawn heavy version, whose slow
	// invokes hold the replica slots and back the queue up. Admission
	// control rejects what it can't hold, the clients' backoff+retry
	// loops absorb every rejection, and not one request is lost. ---
	if err := gateway.SetQueueCap("digits", 1); err != nil {
		return err
	}
	heavyProbe, err := securetf.SliceRows(tx, 0, 16)
	if err != nil {
		return err
	}
	burst := make([]*securetf.ModelClient, 32)
	for i := range burst {
		cl, err := securetf.DialModelServer(customer, securetf.ModelClientConfig{
			Addr: gateway.Addr(), ServerName: "classifier",
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		cl.SetRetry(securetf.RetryPolicy{MaxAttempts: 50})
		burst[i] = cl
	}
	var wg sync.WaitGroup
	for i, cl := range burst {
		wg.Add(1)
		go func(i int, cl *securetf.ModelClient) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				var ver int
				var err error
				if i%2 == 0 {
					_, ver, err = cl.Infer("digits", 2, heavyProbe) // pinned to the heavy CNN
				} else {
					_, ver, err = cl.Infer("digits", 0, probe) // routed to the serving version
				}
				record(ver, err)
			}
		}(i, cl)
	}
	wg.Wait()

	var retries, rejected int64
	for _, cl := range clients {
		retries += cl.Retries()
	}
	for _, cl := range burst {
		retries += cl.Retries()
	}
	for _, m := range gateway.Metrics() {
		rejected += m.Rejected
	}
	fmt.Printf("rollouts under load: %d requests, %d failed, %d rejections absorbed by %d retries, served by version: v1=%d v2=%d v3=%d\n",
		requests, failures, rejected, retries, byVer[1], byVer[2], byVer[3])
	if failures > 0 {
		return fmt.Errorf("rollouts dropped %d requests", failures)
	}
	if byVer[2] == 0 {
		return fmt.Errorf("no canary traffic reached digits@2")
	}
	if rejected == 0 || retries == 0 {
		return fmt.Errorf("overload burst produced no admission pushback (rejected=%d retries=%d)", rejected, retries)
	}

	// --- What the operator sees. ---
	for _, m := range gateway.Metrics() {
		marker := " "
		if m.Serving {
			marker = "*"
		}
		phase := ""
		if m.CanaryPhase != "" {
			phase = " canary:" + m.CanaryPhase
		}
		fmt.Printf("%s digits@%d: served %d in %d batches, rejected %d, %d replicas, p50 %v p99 %v (virtual)%s\n",
			marker, m.Version, m.Served, m.Batches, m.Rejected, m.Replicas, m.P50, m.P99, phase)
	}
	stats := service.EnclaveStats()
	fmt.Printf("enclave counters: %d transitions, %d page faults, %.1f GFLOPs\n",
		stats.Transitions, stats.PageFaults, float64(stats.ComputeFLOPs)/1e9)
	return nil
}
