package serving

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/shield/fsshield"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
)

// launchContainer starts a SCONE HW container for serving tests.
func launchContainer(t testing.TB, mods ...func(*core.Config)) *core.Container {
	t.Helper()
	platform, err := sgx.NewPlatform("serving-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Kind:     core.RuntimeSconeHW,
		Platform: platform,
		Image:    sgx.SyntheticImage("tflite-app", tflite.BinarySize, 4<<20),
		HostFS:   fsapi.NewMem(),
	}
	for _, m := range mods {
		m(&cfg)
	}
	c, err := core.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// buildModel freezes and converts an MNIST MLP; different seeds give
// different weights, so versions are distinguishable by their outputs.
func buildModel(t testing.TB, seed int64) *tflite.Model {
	t.Helper()
	h := models.MNISTMLP(seed)
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	frozen, fx, fl, err := models.FreezeForInference(h, sess)
	if err != nil {
		t.Fatal(err)
	}
	model, err := tflite.Convert(frozen, []*tf.Node{fx}, []*tf.Node{fl}, tflite.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// runLocal executes one model on a bare interpreter — the reference
// output the gateway's batched path must reproduce bitwise.
func runLocal(t testing.TB, model *tflite.Model, input *tf.Tensor) *tf.Tensor {
	t.Helper()
	ip, err := tflite.NewInterpreter(model)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, input); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	out, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTensor reports bitwise equality of two Float32 tensors.
func sameTensor(a, b *tf.Tensor) bool {
	if fmt.Sprint(a.Shape()) != fmt.Sprint(b.Shape()) || a.DType() != b.DType() {
		return false
	}
	for i, v := range a.Floats() {
		if b.Floats()[i] != v {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func input(rows int, seed int64) *tf.Tensor {
	return tf.RandNormal(tf.Shape{rows, 28, 28, 1}, 1, seed)
}

func TestWireRoundTrip(t *testing.T) {
	var buf writeBuffer
	in := input(2, 7)
	if err := WriteRequest(&buf, WireRequest{Model: "densenet", Version: 3, Argmax: true, Input: in}); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if req.Model != "densenet" || req.Version != 3 || !req.Argmax || !sameTensor(req.Input, in) {
		t.Fatalf("request round trip: %+v", req)
	}

	if err := WriteResponse(&buf, WireResponse{Status: StatusOK, Version: 2, Output: in}); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || resp.Version != 2 || !sameTensor(resp.Output, in) {
		t.Fatalf("response round trip: %+v", resp)
	}

	if err := WriteResponse(&buf, WireResponse{Status: StatusOverloaded, Message: "queue full"}); err != nil {
		t.Fatal(err)
	}
	resp, err = ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOverloaded || resp.Message != "queue full" {
		t.Fatalf("error response round trip: %+v", resp)
	}
	if StatusOverloaded.String() != "OVERLOADED" || Status(200).String() != "STATUS_200" {
		t.Fatal("status names")
	}

	// Protocol v2 fields: ServiceVtime rides every response (routers
	// attribute per-step cost from it), and ListModels round-trips with
	// an empty model name.
	if err := WriteResponse(&buf, WireResponse{Status: StatusOK, Version: 1, ServiceVtime: 1234 * time.Microsecond, Output: in}); err != nil {
		t.Fatal(err)
	}
	resp, err = ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServiceVtime != 1234*time.Microsecond {
		t.Fatalf("ServiceVtime round trip: %+v", resp)
	}

	if err := WriteRequest(&buf, WireRequest{ListModels: true}); err != nil {
		t.Fatal(err)
	}
	req, err = ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !req.ListModels || req.Model != "" || req.Input != nil {
		t.Fatalf("ListModels round trip: %+v", req)
	}
	if err := WriteResponse(&buf, WireResponse{Status: StatusModels, Message: "a,b"}); err != nil {
		t.Fatal(err)
	}
	resp, err = ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusModels || resp.Message != "a,b" {
		t.Fatalf("models response round trip: %+v", resp)
	}

	// An empty model name without ListModels is rejected at the wire —
	// default-model resolution happens above this layer.
	if err := WriteRequest(&buf, WireRequest{Input: in}); err == nil {
		t.Fatal("empty model name accepted on a non-list request")
	}
}

// writeBuffer is an in-memory io.ReadWriter for wire tests.
type writeBuffer struct{ data []byte }

func (b *writeBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writeBuffer) Read(p []byte) (int, error) {
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func TestConcurrentClientsMultipleModels(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{Replicas: 2, MaxBatch: 4, BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	modelA, modelB := buildModel(t, 1), buildModel(t, 2)
	if err := g.Register("alpha", 1, modelA); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("beta", 1, modelB); err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 4, 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				name := "alpha"
				if (i+j)%2 == 1 {
					name = "beta"
				}
				classes, err := cl.Classify(name, input(1+j%3, int64(i*100+j)))
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", i, j, err)
					return
				}
				for _, cls := range classes {
					if cls < 0 || cls >= 10 {
						errs <- fmt.Errorf("class %d out of range", cls)
						return
					}
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Served(); got != clients*perClient {
		t.Fatalf("served %d of %d requests", got, clients*perClient)
	}
	metrics := g.Metrics()
	if len(metrics) != 2 {
		t.Fatalf("metrics entries: %+v", metrics)
	}
	for _, m := range metrics {
		if m.Served == 0 || !m.Serving {
			t.Fatalf("model %s@%d: %+v", m.Model, m.Version, m)
		}
		if m.P50 <= 0 || m.P99 < m.P50 {
			t.Fatalf("latency percentiles: %+v", m)
		}
	}
}

func TestClientConcurrentUseOneConnection(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Register("m", 1, buildModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := cl.Classify("m", input(1, int64(i*10+j))); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := g.Served(); got != 40 {
		t.Fatalf("served = %d", got)
	}
}

// gatedGateway builds a gateway whose dispatcher waits on the returned
// gate channel, so tests can pile requests into the queue
// deterministically before any dispatch happens.
func gatedGateway(t *testing.T, c *core.Container, cfg Config) (*Gateway, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	cfg.gate = gate
	g, err := NewGateway(c, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, gate
}

// queueDepth reads a model's current admission-queue occupancy — the
// pending counter admission enforces the live QueueCap against, not the
// raw channel length.
func queueDepth(g *Gateway, name string) int {
	m := g.lookup(name)
	if m == nil {
		return -1
	}
	return int(m.pending.Load())
}

func TestBatchingCorrectness(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{MaxBatch: 8, BatchWindow: 50 * time.Millisecond})
	model := buildModel(t, 3)
	if err := g.Register("m", 1, model); err != nil {
		t.Fatal(err)
	}

	const n = 8
	inputs := make([]*tf.Tensor, n)
	for i := range inputs {
		inputs[i] = input(1, int64(i+1))
	}
	outputs := make([]*tf.Tensor, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			out, _, err := cl.Infer("m", 0, inputs[i])
			outputs[i] = out
			errs <- err
		}(i)
	}
	// All eight requests must be queued before the dispatcher runs, so
	// they coalesce into exactly one batched invocation.
	waitFor(t, "8 queued requests", func() bool { return queueDepth(g, "m") == n })
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	for i := range inputs {
		ref := runLocal(t, model, inputs[i])
		if !sameTensor(outputs[i], ref) {
			t.Fatalf("request %d: batched output differs from per-request output", i)
		}
	}
	m := g.Metrics()[0]
	if m.Served != n || m.Batches != 1 {
		t.Fatalf("served %d in %d batches, want %d in 1", m.Served, m.Batches, n)
	}
}

func TestBatchingMixedRowCountsAndPinnedVersions(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{MaxBatch: 16, BatchWindow: 50 * time.Millisecond})
	v1, v2 := buildModel(t, 4), buildModel(t, 5)
	if err := g.Register("m", 1, v1); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("m", 2, v2); err != nil {
		t.Fatal(err)
	}

	// Mixed batch: multi-row requests, two pinned to version 2, and two
	// whose rows are flat [784] rather than [28 28 1] (the MLP flattens
	// either); the batcher must split groups by resolved version and row
	// shape and keep row order.
	type job struct {
		rows    int
		version int
		flat    bool
	}
	jobs := []job{{1, 0, false}, {3, 0, false}, {2, 2, false}, {2, 0, true}, {1, 0, false}, {1, 2, true}}
	outputs := make([]*tf.Tensor, len(jobs))
	versions := make([]int, len(jobs))
	inputs := make([]*tf.Tensor, len(jobs))
	errs := make(chan error, len(jobs))
	for i, j := range jobs {
		inputs[i] = input(j.rows, int64(10+i))
		if j.flat {
			inputs[i] = tf.RandNormal(tf.Shape{j.rows, 784}, 1, int64(10+i))
		}
		go func(i int, j job) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			out, ver, err := cl.Infer("m", j.version, inputs[i])
			outputs[i], versions[i] = out, ver
			errs <- err
		}(i, j)
	}
	waitFor(t, "6 queued requests", func() bool { return queueDepth(g, "m") == len(jobs) })
	close(gate)
	for range jobs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	for i, j := range jobs {
		wantModel, wantVer := v1, 1
		if j.version == 2 {
			wantModel, wantVer = v2, 2
		}
		if versions[i] != wantVer {
			t.Fatalf("request %d served by version %d, want %d", i, versions[i], wantVer)
		}
		if !sameTensor(outputs[i], runLocal(t, wantModel, inputs[i])) {
			t.Fatalf("request %d: output differs from its version's reference", i)
		}
	}
	// One collected batch, four groups: each version ran its [28 28 1]
	// rows and its [784] rows as one invocation each.
	for _, m := range g.Metrics() {
		if m.Batches != 2 {
			t.Fatalf("version %d served %d requests in %d invocations, want 2", m.Version, m.Served, m.Batches)
		}
	}
}

func TestMaxBatchBoundsRowsPerInvoke(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{MaxBatch: 4, BatchWindow: 50 * time.Millisecond})
	model := buildModel(t, 13)
	if err := g.Register("m", 1, model); err != nil {
		t.Fatal(err)
	}

	// Any two of these row counts exceed MaxBatch=4 together, so in any
	// arrival order each request must run as its own invocation: the
	// collector carries an overflowing request into the next batch, and
	// a single oversized request (6 rows) runs alone rather than being
	// split or over-coalesced.
	rowCounts := []int{3, 2, 6}
	inputs := make([]*tf.Tensor, len(rowCounts))
	outputs := make([]*tf.Tensor, len(rowCounts))
	errs := make(chan error, len(rowCounts))
	for i, rows := range rowCounts {
		inputs[i] = input(rows, int64(20+i))
		go func(i int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			out, _, err := cl.Infer("m", 0, inputs[i])
			outputs[i] = out
			errs <- err
		}(i)
	}
	waitFor(t, "3 queued requests", func() bool { return queueDepth(g, "m") == len(rowCounts) })
	close(gate)
	for range rowCounts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m := g.Metrics()[0]
	if m.Served != 3 || m.Batches != 3 {
		t.Fatalf("served %d in %d batches, want 3 in 3 (MaxBatch must hold)", m.Served, m.Batches)
	}
	for i := range inputs {
		if !sameTensor(outputs[i], runLocal(t, model, inputs[i])) {
			t.Fatalf("request %d: output differs from reference", i)
		}
	}
}

func TestOverloadRejection(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{QueueCap: 2})
	if err := g.Register("m", 1, buildModel(t, 6)); err != nil {
		t.Fatal(err)
	}
	// A second, non-serving version: admission control is per model, so
	// its row must not repeat the rejection counters (summing a
	// snapshot used to double-count them, one copy per version).
	if err := g.Register("m", 2, buildModel(t, 6)); err != nil {
		t.Fatal(err)
	}

	// Fill the admission queue while the dispatcher is gated.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			_, err = cl.Classify("m", input(1, int64(i)))
			errs <- err
		}(i)
	}
	waitFor(t, "full queue", func() bool { return queueDepth(g, "m") == 2 })

	// The third request must be rejected with the distinct wire status.
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Classify("m", input(1, 9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, m := range g.Metrics() {
		total += m.Rejected
		switch {
		case m.Serving:
			if m.Rejected != 1 || m.Served != 2 {
				t.Fatalf("serving row: rejected %d served %d, want 1 and 2", m.Rejected, m.Served)
			}
		default:
			if m.Rejected != 0 || m.QueueDepth != 0 {
				t.Fatalf("non-serving row %s@%d repeats the per-model counters: %+v", m.Model, m.Version, m)
			}
		}
	}
	if total != 1 {
		t.Fatalf("snapshot sums to %d rejections, want exactly 1", total)
	}
}

func TestHotSwapUnderLoadNoDropsNoMisversions(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{Replicas: 2, MaxBatch: 8, BatchWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	v1, v2 := buildModel(t, 7), buildModel(t, 8)
	if err := g.Register("m", 1, v1); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("m", 2, v2); err != nil {
		t.Fatal(err)
	}

	// One fixed probe input with a per-version reference output, so a
	// mis-versioned response (wrong weights for the reported version) is
	// caught bitwise.
	probe := input(1, 42)
	refs := map[int]*tf.Tensor{1: runLocal(t, v1, probe), 2: runLocal(t, v2, probe)}
	if sameTensor(refs[1], refs[2]) {
		t.Fatal("versions are not distinguishable; the mis-version check would be vacuous")
	}

	const workers, perWorker = 6, 40
	var swapped sync.WaitGroup
	swapped.Add(1)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			pinned := w%2 == 0
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					// Swap mid-load, with traffic in flight everywhere.
					if err := g.SetServing("m", 2); err != nil {
						errs <- err
						return
					}
					swapped.Done()
				}
				reqVersion := 0
				if pinned {
					reqVersion = 1
				}
				out, ver, err := cl.Infer("m", reqVersion, probe)
				if err != nil {
					errs <- fmt.Errorf("worker %d request %d failed: %w", w, i, err)
					return
				}
				if pinned && ver != 1 {
					errs <- fmt.Errorf("pinned request served by version %d", ver)
					return
				}
				ref, ok := refs[ver]
				if !ok {
					errs <- fmt.Errorf("response reports unknown version %d", ver)
					return
				}
				if !sameTensor(out, ref) {
					errs <- fmt.Errorf("mis-versioned response: output does not match version %d", ver)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	swapped.Wait()
	if got := g.Served(); got != workers*perWorker {
		t.Fatalf("served %d of %d requests across the swap", got, workers*perWorker)
	}
	if g.ServingVersion("m") != 2 {
		t.Fatalf("serving version = %d after swap", g.ServingVersion("m"))
	}
	// The old version drains cleanly once no longer serving.
	if err := g.RemoveVersion("m", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveVersion("m", 2); err == nil {
		t.Fatal("removed the serving version")
	}
}

// TestBatchedThroughputBeatsUnbatched is the acceptance check: the same
// model, client count and request load finish in strictly less virtual
// time with micro-batching on, because the per-invoke weight streaming is
// amortized across the batch.
func TestBatchedThroughputBeatsUnbatched(t *testing.T) {
	const requests = 16
	run := func(maxBatch int) time.Duration {
		c := launchContainer(t)
		cfg := Config{MaxBatch: maxBatch, BatchWindow: 50 * time.Millisecond}
		g, gate := gatedGateway(t, c, cfg)
		if err := g.Register("m", 1, buildModel(t, 9)); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, requests)
		before := c.Clock().Now()
		for i := 0; i < requests; i++ {
			go func(i int) {
				cl, err := Dial(c, g.Addr(), "")
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				_, err = cl.Classify("m", input(1, int64(i)))
				errs <- err
			}(i)
		}
		// Identical episodes: all requests queued, then dispatched.
		waitFor(t, "queued requests", func() bool { return queueDepth(g, "m") == requests })
		close(gate)
		for i := 0; i < requests; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		return c.Clock().Now() - before
	}
	unbatched := run(1)
	batched := run(requests)
	if batched >= unbatched {
		t.Fatalf("batched virtual time %v is not strictly below unbatched %v", batched, unbatched)
	}
	t.Logf("virtual time for %d requests: unbatched %v, batched %v (%.1fx)",
		requests, unbatched, batched, float64(unbatched)/float64(batched))
}

func TestRegistryLifecycleAndShieldedLoad(t *testing.T) {
	key, err := seccrypto.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	c := launchContainer(t, func(cfg *core.Config) {
		cfg.FSShieldRules = []fsshield.Rule{{Prefix: "volumes/models/", Level: fsshield.LevelEncrypted}}
		cfg.VolumeKey = &key
	})
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	model := buildModel(t, 10)
	if err := fsapi.WriteFile(c.FS(), "volumes/models/m.stfl", model.Marshal()); err != nil {
		t.Fatal(err)
	}
	// The model loads through the file-system shield (decrypt + verify).
	if err := g.LoadModel("m", 1, "volumes/models/m.stfl"); err != nil {
		t.Fatal(err)
	}
	if err := g.LoadModel("m", 1, "volumes/models/m.stfl"); err == nil {
		t.Fatal("duplicate name@version accepted")
	}
	if err := g.LoadModel("m", 2, "volumes/models/missing.stfl"); err == nil {
		t.Fatal("missing model file accepted")
	}
	if err := g.SetServing("m", 9); err == nil {
		t.Fatal("SetServing accepted an unknown version")
	}
	if err := g.SetServing("ghost", 1); err == nil {
		t.Fatal("SetServing accepted an unknown model")
	}
	if err := g.RemoveVersion("m", 1); err == nil {
		t.Fatal("removed the only serving version")
	}
	if got := fmt.Sprint(g.Models()); got != "[m]" {
		t.Fatalf("models = %s", got)
	}

	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Classify("m", input(2, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Classify("ghost", input(1, 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, _, err := cl.Infer("m", 7, input(1, 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound for unknown version", err)
	}
	if _, err := cl.Classify("m", tf.Scalar(1)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest for a scalar input", err)
	}
}

func TestCloseWithIdleConnectionsDoesNotHang(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Register("m", 1, buildModel(t, 11)); err != nil {
		t.Fatal(err)
	}

	// One client completes a request and then idles on the open
	// connection; another connects and never sends a byte. Close must
	// still return: it closes live conns to unpark the blocked readers.
	busy, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if _, err := busy.Classify("m", input(1, 1)); err != nil {
		t.Fatal(err)
	}
	idle, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	done := make(chan error, 1)
	go func() { done <- g.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with idle connections open")
	}
	if _, err := busy.Classify("m", input(1, 2)); err == nil {
		t.Fatal("classify succeeded after gateway close")
	}
	if err := g.Register("late", 1, buildModel(t, 12)); err == nil {
		t.Fatal("register succeeded after close")
	}
}

// TestGatewayChurnUnderLoad hammers the registry's mutating API —
// Register / SetServing / RemoveVersion cycling through versions — while
// concurrent clients keep request load on the gateway (run under -race
// in CI). The contract under churn: zero dropped requests — every
// request gets a definitive answer — and a pinned request for a drained
// or not-yet-registered version is refused with NOT_FOUND (or
// OVERLOADED under queue pressure), never left hanging on a version
// whose pool was released.
func TestGatewayChurnUnderLoad(t *testing.T) {
	runGatewayChurn(t, Config{
		Replicas: 2, MaxBatch: 4, BatchWindow: time.Millisecond, QueueCap: 64,
	})
}

// TestGatewayChurnUnderLoadAutoscaled runs the same churn scenario with
// the autoscaler live — replica targets moving under the registry
// mutations must not change the zero-drop contract — and then checks the
// scale-to-zero/lazy-repopulation cycle on the surviving version.
func TestGatewayChurnUnderLoadAutoscaled(t *testing.T) {
	g := runGatewayChurn(t, Config{
		Replicas: 1, MaxBatch: 4, BatchWindow: time.Millisecond, QueueCap: 64,
		Autoscale: &AutoscaleConfig{
			Tick: 5 * time.Millisecond, MaxReplicas: 4, SustainTicks: 1, IdleTicks: 1,
		},
	})
	// Load is gone: the first tick absorbs the churn's residual arrival
	// delta, the next one sees a full idle tick and parks the model,
	// evicting its interpreter pools (their enclave weight residency
	// with them).
	if !g.TickAutoscale() {
		t.Fatal("autoscaler not enabled")
	}
	g.TickAutoscale()
	if got := g.AutoscaleReplicas("m"); got != 0 {
		t.Fatalf("idle model at %d replicas, want scaled to zero", got)
	}
	m := g.lookup("m")
	m.mu.Lock()
	for ver, v := range m.versions {
		if n := v.pool.size(); n != 0 {
			m.mu.Unlock()
			t.Fatalf("parked model still holds %d replicas for version %d", n, ver)
		}
	}
	m.mu.Unlock()
	// The next request repopulates lazily and must still be answered.
	c := g.container
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Classify("m", input(1, 99)); err != nil {
		t.Fatalf("request to a scaled-to-zero model failed: %v", err)
	}
	if got := g.AutoscaleReplicas("m"); got < 1 {
		t.Fatalf("model still parked after traffic (replicas %d)", got)
	}
}

// runGatewayChurn drives the churn scenario against cfg and returns the
// (still open, cleanup-closed) gateway for extra assertions.
func runGatewayChurn(t *testing.T, cfg Config) *Gateway {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	model := buildModel(t, 7)
	if err := g.Register("m", 1, model); err != nil {
		t.Fatal(err)
	}
	probe := input(1, 42)

	// Churner: register the next version, make it serving, drain and
	// remove the previous one — a full hot-swap per iteration.
	const versions = 8
	churned := make(chan error, 1)
	go func() {
		for v := 2; v <= versions; v++ {
			if err := g.Register("m", v, model); err != nil {
				churned <- fmt.Errorf("register v%d: %w", v, err)
				return
			}
			if err := g.SetServing("m", v); err != nil {
				churned <- fmt.Errorf("set serving v%d: %w", v, err)
				return
			}
			if err := g.RemoveVersion("m", v-1); err != nil {
				churned <- fmt.Errorf("remove v%d: %w", v-1, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		churned <- nil
	}()

	type tally struct{ ok, overloaded, notFound int }
	const clients, perClient = 8, 40
	results := make(chan tally, clients)
	failures := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				failures <- err
				return
			}
			defer cl.Close()
			var tl tally
			for i := 0; i < perClient; i++ {
				version := 0 // unpinned: always resolves to a live version
				if w%2 == 0 {
					// Pinned across the churn window: sometimes live,
					// sometimes drained, sometimes not yet registered.
					version = 1 + i%versions
				}
				_, _, err := cl.Infer("m", version, probe)
				switch {
				case err == nil:
					tl.ok++
				case errors.Is(err, ErrOverloaded):
					tl.overloaded++
				case errors.Is(err, ErrNotFound) && version != 0:
					tl.notFound++
				default:
					failures <- fmt.Errorf("client %d request %d (version %d): %w", w, i, version, err)
					return
				}
			}
			results <- tl
			failures <- nil
		}(w)
	}

	var total tally
	for w := 0; w < clients; w++ {
		select {
		case err := <-failures:
			if err != nil {
				t.Fatal(err)
			}
			total2 := <-results
			total.ok += total2.ok
			total.overloaded += total2.overloaded
			total.notFound += total2.notFound
		case <-time.After(60 * time.Second):
			t.Fatal("a request hung during registry churn")
		}
	}
	select {
	case err := <-churned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("churner hung (RemoveVersion stuck draining?)")
	}

	// Zero dropped: every issued request is accounted for by a
	// definitive outcome.
	if got := total.ok + total.overloaded + total.notFound; got != clients*perClient {
		t.Fatalf("%d of %d requests accounted for (ok %d, overloaded %d, not-found %d)",
			got, clients*perClient, total.ok, total.overloaded, total.notFound)
	}
	if total.ok == 0 {
		t.Fatal("no request succeeded under churn")
	}
	// The clients may have finished before the last version went live;
	// one request after the churn makes sure it has served something.
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Infer("m", 0, probe); err != nil {
		t.Fatalf("request after the churn: %v", err)
	}
	total.ok++
	// Served() sums the counters of the *registered* versions, and the
	// churn removed all but the last — so it can only undercount, never
	// exceed what clients observed.
	if got := g.Served(); got == 0 || got > total.ok {
		t.Fatalf("gateway counts %d served, clients saw %d OKs", got, total.ok)
	}
	if got := g.ServingVersion("m"); got != versions {
		t.Fatalf("serving version = %d after churn, want %d", got, versions)
	}
	// Exactly one version remains registered; the drained ones are gone.
	for v := 1; v < versions; v++ {
		if err := g.SetServing("m", v); err == nil {
			t.Fatalf("drained version %d still registered after churn", v)
		}
	}
	return g
}

// buildCNN builds a deliberately heavier MNIST model (same input/output
// shapes as buildModel's MLP, much larger per-invoke virtual cost) —
// the "bad candidate" for canary tests.
func buildCNN(t testing.TB, seed int64) *tflite.Model {
	t.Helper()
	h := models.MNISTCNN(seed)
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	frozen, fx, fl, err := models.FreezeForInference(h, sess)
	if err != nil {
		t.Fatal(err)
	}
	model, err := tflite.Convert(frozen, []*tf.Node{fx}, []*tf.Node{fl}, tflite.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestConfigChainResolution(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{Replicas: 2, MaxBatch: 8, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Base layer: gateway defaults, withDefaults applied.
	base := g.ResolvedConfig("x", 0)
	want := Resolved{Replicas: 2, MaxBatch: 8, BatchWindow: DefaultBatchWindow, QueueCap: 16}
	if base != want {
		t.Fatalf("base resolve = %+v, want %+v", base, want)
	}

	// Model layer overrides; other models stay on the defaults.
	if err := g.UpdateConfig("m", 0, Overrides{Replicas: 3, MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	r := g.ResolvedConfig("m", 0)
	if r.Replicas != 3 || r.MaxBatch != 1 {
		t.Fatalf("model-layer resolve = %+v", r)
	}
	if g.ResolvedConfig("x", 0) != want {
		t.Fatal("override for m leaked into another model")
	}

	// Version layer wins over the model layer, for its version only.
	if err := g.UpdateConfig("m", 2, Overrides{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	if got := g.ResolvedConfig("m", 2).Replicas; got != 1 {
		t.Fatalf("version-layer Replicas = %d, want 1", got)
	}
	if got := g.ResolvedConfig("m", 1).Replicas; got != 3 {
		t.Fatalf("sibling version Replicas = %d, want the model layer's 3", got)
	}

	// A zero Overrides clears its layer.
	if err := g.UpdateConfig("m", 2, Overrides{}); err != nil {
		t.Fatal(err)
	}
	if got := g.ResolvedConfig("m", 2).Replicas; got != 3 {
		t.Fatalf("cleared version layer still resolves Replicas %d", got)
	}

	// Validation: per-model knobs are rejected at the version layer, and
	// out-of-range values everywhere.
	if err := g.UpdateConfig("m", 2, Overrides{MaxBatch: 4}); err == nil {
		t.Fatal("version-layer MaxBatch accepted")
	}
	if err := g.UpdateConfig("m", 0, Overrides{Replicas: -1}); err == nil {
		t.Fatal("negative Replicas accepted")
	}
	if err := g.UpdateConfig("m", 0, Overrides{Replicas: maxReplicas + 1}); err == nil {
		t.Fatal("over-ceiling Replicas accepted")
	}
	if err := g.UpdateConfig("m", 0, Overrides{QueueCap: maxQueueCap + 1}); err == nil {
		t.Fatal("over-ceiling QueueCap accepted")
	}
	if err := g.UpdateConfig("", 0, Overrides{Replicas: 1}); err == nil {
		t.Fatal("empty model name accepted")
	}

	// Replicas apply live: registration uses the resolved count, and a
	// later override shrinks the pool in place.
	if err := g.Register("m", 1, buildModel(t, 21)); err != nil {
		t.Fatal(err)
	}
	m := g.lookup("m")
	if got := m.versions[1].pool.size(); got != 3 {
		t.Fatalf("registered pool size %d, want the resolved 3", got)
	}
	if err := g.UpdateConfig("m", 0, Overrides{Replicas: 1, MaxBatch: 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.versions[1].pool.size(); got != 1 {
		t.Fatalf("pool size %d after live shrink, want 1", got)
	}
}

func TestUpdateConfigLiveQueueCap(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{QueueCap: 4})
	if err := g.Register("m", 1, buildModel(t, 22)); err != nil {
		t.Fatal(err)
	}
	if err := g.UpdateConfig("m", 0, Overrides{QueueCap: 2}); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func(i int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			_, err = cl.Classify("m", input(1, int64(i)))
			errs <- err
		}(i)
	}
	waitFor(t, "full overridden queue", func() bool { return queueDepth(g, "m") == 2 })

	// The overridden cap (2, not the gateway's 4) rejects the third...
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Classify("m", input(1, 9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded at the overridden cap", err)
	}
	// ...and raising it live admits the same request.
	if err := g.UpdateConfig("m", 0, Overrides{QueueCap: 3}); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := cl.Classify("m", input(1, 9))
		errs <- err
	}()
	waitFor(t, "third request admitted", func() bool { return queueDepth(g, "m") == 3 })
	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAutoscalePressureParkWake(t *testing.T) {
	c := launchContainer(t)
	if _, err := NewGateway(c, "127.0.0.1:0", Config{
		Autoscale: &AutoscaleConfig{MinReplicas: 9, MaxReplicas: 4},
	}); err == nil {
		t.Fatal("contradictory autoscale config accepted")
	}

	g, gate := gatedGateway(t, c, Config{
		QueueCap:  8,
		Autoscale: &AutoscaleConfig{SustainTicks: 1, MaxReplicas: 4, IdleTicks: 1},
	})
	if err := g.Register("m", 1, buildModel(t, 23)); err != nil {
		t.Fatal(err)
	}

	// Queue pressure: 4 pending = ScaleUpFrac (0.5) of the cap.
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			_, err = cl.Classify("m", input(1, int64(i)))
			errs <- err
		}(i)
	}
	waitFor(t, "queue pressure", func() bool { return queueDepth(g, "m") == n })

	// Sustained pressure doubles the replica target toward the max.
	g.TickAutoscale()
	if got := g.AutoscaleReplicas("m"); got != 2 {
		t.Fatalf("replicas after pressure tick = %d, want 2", got)
	}
	g.TickAutoscale()
	if got := g.AutoscaleReplicas("m"); got != 4 {
		t.Fatalf("replicas after second pressure tick = %d, want 4 (max)", got)
	}

	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Traffic with a drained queue steps the target down by one...
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Classify("m", input(1, 50)); err != nil {
		t.Fatal(err)
	}
	g.TickAutoscale()
	if got := g.AutoscaleReplicas("m"); got != 3 {
		t.Fatalf("replicas after drained tick = %d, want 3", got)
	}

	// ...and sustained idleness parks the model at zero, evicting pools.
	g.TickAutoscale()
	if got := g.AutoscaleReplicas("m"); got != 0 {
		t.Fatalf("replicas after idle tick = %d, want 0", got)
	}
	m := g.lookup("m")
	if got := m.versions[1].pool.size(); got != 0 {
		t.Fatalf("parked pool still holds %d replicas", got)
	}

	// The next request wakes the model and repopulates lazily.
	if _, err := cl.Classify("m", input(1, 51)); err != nil {
		t.Fatalf("request to parked model failed: %v", err)
	}
	if got := g.AutoscaleReplicas("m"); got < 1 {
		t.Fatalf("model still parked after traffic (replicas %d)", got)
	}
}

// TestReplicaSeconds: replica-seconds integrate the live pool size over
// virtual time, so N replicas held for d accrue N·d, and a model the
// autoscaler has parked at zero accrues nothing while it idles — the
// capacity scale-to-zero saves.
func TestReplicaSeconds(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{
		Replicas:  3,
		Autoscale: &AutoscaleConfig{MaxReplicas: 4, IdleTicks: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Register("m", 1, buildModel(t, 5)); err != nil {
		t.Fatal(err)
	}
	const d = 1500 * time.Millisecond
	last := g.ReplicaSeconds("m")
	accrued := func() float64 {
		now := g.ReplicaSeconds("m")
		delta := now - last
		last = now
		return delta
	}
	c.Clock().Advance(d)
	if got, want := accrued(), 3*d.Seconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("3 replicas held for %v accrued %g replica-seconds, want %g", d, got, want)
	}
	// The replicas count until the tick that parks them.
	c.Clock().Advance(d)
	g.TickAutoscale()
	if got := g.AutoscaleReplicas("m"); got != 0 {
		t.Fatalf("idle model kept %d replicas, want it parked at 0", got)
	}
	if got, want := accrued(), 3*d.Seconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("3 replicas held for %v, then parked, accrued %g replica-seconds, want %g", d, got, want)
	}
	c.Clock().Advance(d)
	if got := accrued(); got != 0 {
		t.Fatalf("model parked at zero accrued %g replica-seconds over %v", got, d)
	}
}

func TestCanaryPromoteHealthyCandidate(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Register("m", 1, buildModel(t, 31)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("m", 2, buildModel(t, 32)); err != nil {
		t.Fatal(err)
	}

	if err := g.StartCanary("m", 2, CanaryConfig{Percent: 200}); err == nil {
		t.Fatal("Percent 200 accepted")
	}
	if err := g.StartCanary("m", 9, CanaryConfig{Percent: 10}); err == nil {
		t.Fatal("unknown candidate accepted")
	}
	if err := g.StartCanary("m", 1, CanaryConfig{Percent: 10}); err == nil {
		t.Fatal("serving version accepted as its own candidate")
	}
	if err := g.StartCanary("m", 2, CanaryConfig{Percent: 50, Window: 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.StartCanary("m", 2, CanaryConfig{Percent: 50}); err == nil {
		t.Fatal("second concurrent canary accepted")
	}
	if st := g.Canary("m"); st.Phase != CanaryActive || st.Candidate != 2 || st.Incumbent != 1 {
		t.Fatalf("active canary state = %+v", st)
	}
	if err := g.RemoveVersion("m", 2); err == nil {
		t.Fatal("removed the active canary candidate")
	}

	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Sequential unpinned traffic: 50% routes to the candidate, so the
	// 10-response window fills within ~20 requests and the healthy
	// candidate is promoted.
	sawCandidate := 0
	for i := 0; i < 30; i++ {
		_, ver, err := cl.Infer("m", 0, input(1, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if ver == 2 {
			sawCandidate++
		}
		// Pinned requests never participate in canary routing.
		if _, pv, err := cl.Infer("m", 1, input(1, int64(i))); err != nil || pv != 1 {
			t.Fatalf("pinned request: version %d err %v", pv, err)
		}
	}
	if sawCandidate == 0 {
		t.Fatal("no unpinned request was canary-routed")
	}
	st := g.Canary("m")
	if st.Phase != CanaryPromoted {
		t.Fatalf("canary phase = %q (%s), want promoted", st.Phase, st.Reason)
	}
	if st.Observed < int64(st.Window) || st.DecidedAt == 0 {
		t.Fatalf("verdict bookkeeping: %+v", st)
	}
	if got := g.ServingVersion("m"); got != 2 {
		t.Fatalf("serving version %d after promotion, want 2", got)
	}
}

func TestCanaryRollbackSlowCandidate(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Register("m", 1, buildModel(t, 33)); err != nil {
		t.Fatal(err)
	}
	// The candidate is a much heavier model: same interface, far larger
	// per-invoke virtual cost, so its p99 blows the rollback threshold.
	if err := g.Register("m", 2, buildCNN(t, 34)); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Pre-canary baseline latency for the incumbent.
	for i := 0; i < 10; i++ {
		if _, _, err := cl.Infer("m", 0, input(1, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.StartCanary("m", 2, CanaryConfig{Percent: 50, Window: 6, MaxP99Ratio: 1.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && g.Canary("m").Phase == CanaryActive; i++ {
		if _, _, err := cl.Infer("m", 0, input(1, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Canary("m")
	if st.Phase != CanaryRolledBack {
		t.Fatalf("canary phase = %q (%s), want rolled-back", st.Phase, st.Reason)
	}
	if st.Reason == "" {
		t.Fatal("rollback carries no reason")
	}
	if got := g.ServingVersion("m"); got != 1 {
		t.Fatalf("serving version %d after rollback, want the incumbent 1", got)
	}
	// After the verdict, unpinned traffic goes only to the incumbent.
	for i := 0; i < 6; i++ {
		if _, ver, err := cl.Infer("m", 0, input(1, int64(200+i))); err != nil || ver != 1 {
			t.Fatalf("post-rollback request: version %d err %v", ver, err)
		}
	}
}

// TestCanaryVtimeWindowVerdict pins the WindowVtime bound: a canary
// whose response window would never fill still reaches a verdict once
// the virtual clock runs past the vtime bound.
func TestCanaryVtimeWindowVerdict(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Register("m", 1, buildModel(t, 61)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("m", 2, buildModel(t, 62)); err != nil {
		t.Fatal(err)
	}
	// A window far larger than the traffic we will send, bounded in
	// vtime instead: every invoke advances the shared virtual clock, so
	// the verdict must fire on the clock, not the count.
	if err := g.StartCanary("m", 2, CanaryConfig{
		Percent:     50,
		Window:      1 << 20,
		WindowVtime: 200 * time.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := 500
	for i := 0; i < deadline && g.Canary("m").Phase == CanaryActive; i++ {
		if _, _, err := cl.Infer("m", 0, input(1, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Canary("m")
	if st.Phase != CanaryPromoted {
		t.Fatalf("canary phase = %q (%s), want promoted via the vtime bound", st.Phase, st.Reason)
	}
	if st.Observed >= int64(st.Window) {
		t.Fatalf("window filled (%d of %d observed) — the vtime bound never gated", st.Observed, st.Window)
	}
	if st.WindowVtime != 200*time.Microsecond {
		t.Fatalf("verdict lost the vtime bound: %+v", st)
	}
	if got := g.ServingVersion("m"); got != 2 {
		t.Fatalf("serving version %d after vtime-bounded promotion, want 2", got)
	}
}

func TestCanaryAbortAndFallback(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{})
	if err := g.Register("m", 1, buildModel(t, 35)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("m", 2, buildModel(t, 36)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register("m", 3, buildModel(t, 37)); err != nil {
		t.Fatal(err)
	}
	if err := g.StartCanary("m", 2, CanaryConfig{Percent: 99, Window: 100}); err != nil {
		t.Fatal(err)
	}

	// Queue unpinned requests while the dispatcher is gated: nearly all
	// are canary-routed to version 2.
	const n = 4
	errs := make(chan error, n)
	versions := make([]int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			cl, err := Dial(c, g.Addr(), "")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			_, versions[i], err = cl.Infer("m", 0, input(1, int64(i)))
			errs <- err
		}(i)
	}
	waitFor(t, "queued canary traffic", func() bool { return queueDepth(g, "m") == n })

	// An operator override preempts the canary, and the candidate is
	// withdrawn while its traffic is still queued.
	if err := g.SetServing("m", 3); err != nil {
		t.Fatal(err)
	}
	if st := g.Canary("m"); st.Phase != CanaryAborted {
		t.Fatalf("canary phase = %q after SetServing away, want aborted", st.Phase)
	}
	if err := g.RemoveVersion("m", 2); err != nil {
		t.Fatal(err)
	}

	// The queued canary-routed requests must fall back to the serving
	// version — answered, not NOT_FOUND.
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("canary-routed request dropped after candidate withdrawal: %v", err)
		}
	}
	for i, ver := range versions {
		if ver != 3 && ver != 1 {
			t.Fatalf("request %d served by version %d, want a live version", i, ver)
		}
	}
}

func TestClientRetryOnOverload(t *testing.T) {
	c := launchContainer(t)
	g, gate := gatedGateway(t, c, Config{QueueCap: 1})
	if err := g.Register("m", 1, buildModel(t, 41)); err != nil {
		t.Fatal(err)
	}

	// Fill the one-slot queue while the dispatcher is gated.
	fillErr := make(chan error, 1)
	go func() {
		cl, err := Dial(c, g.Addr(), "")
		if err != nil {
			fillErr <- err
			return
		}
		defer cl.Close()
		_, err = cl.Classify("m", input(1, 1))
		fillErr <- err
	}()
	waitFor(t, "full queue", func() bool { return queueDepth(g, "m") == 1 })

	// Capped attempts: the retries are counted and the overload still
	// surfaces as ErrOverloaded once they are exhausted.
	capped, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	capped.SetRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: 100 * time.Microsecond})
	before := c.Clock().Now()
	if _, err := capped.Classify("m", input(1, 2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after exhausted retries", err)
	}
	if got := capped.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2 (3 attempts)", got)
	}
	// Backoff is charged to the virtual clock.
	if c.Clock().Now() == before {
		t.Fatal("retry backoff charged no virtual time")
	}

	// A patient client rides out the overload: it retries while the
	// queue is full and succeeds once the dispatcher drains it.
	patient, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer patient.Close()
	patient.SetRetry(RetryPolicy{MaxAttempts: 200, BaseBackoff: time.Millisecond})
	patientErr := make(chan error, 1)
	go func() {
		_, err := patient.Classify("m", input(1, 3))
		patientErr <- err
	}()
	waitFor(t, "at least one retry", func() bool { return patient.Retries() >= 1 })
	close(gate)
	if err := <-patientErr; err != nil {
		t.Fatalf("patient client failed despite retries: %v", err)
	}
	if err := <-fillErr; err != nil {
		t.Fatal(err)
	}
}

func TestMetricsDeterministicOrder(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	model := buildModel(t, 51)
	// Register out of order: snapshots must still sort by model, then
	// version.
	for _, reg := range []struct {
		name    string
		version int
	}{{"b", 1}, {"a", 2}, {"c", 1}, {"a", 1}} {
		if err := g.Register(reg.name, reg.version, model); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a@1", "a@2", "b@1", "c@1"}
	for i := 0; i < 5; i++ {
		got := make([]string, 0, len(want))
		for _, m := range g.Metrics() {
			got = append(got, fmt.Sprintf("%s@%d", m.Model, m.Version))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("metrics order %v, want %v", got, want)
		}
	}
	for _, m := range g.Metrics() {
		if m.Replicas != 1 {
			t.Fatalf("%s@%d reports %d replicas, want 1", m.Model, m.Version, m.Replicas)
		}
		if m.Canary || m.CanaryPhase != "" {
			t.Fatalf("%s@%d reports canary state with no canary", m.Model, m.Version)
		}
	}
}

// TestInt32RequestIsAnErrorNotACrash sends a well-formed request whose
// tensor is Int32 to a Float32 model. It used to panic on the batcher
// goroutine ("tf: Floats on non-float tensor") and take the gateway
// process down; it must come back as a non-OK response and leave the
// gateway serving.
func TestInt32RequestIsAnErrorNotACrash(t *testing.T) {
	c := launchContainer(t)
	g, err := NewGateway(c, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	model := buildModel(t, 1)
	if err := g.Register("mnist", 1, model); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(c, g.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Do(WireRequest{Model: "mnist", Input: tf.NewTensor(tf.Int32, tf.Shape{1, 28, 28, 1})})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status == StatusOK {
		t.Fatal("Int32 request answered OK")
	}
	in := input(1, 3)
	out, _, err := cl.Infer("mnist", 0, in)
	if err != nil {
		t.Fatalf("Float32 request after the Int32 one: %v", err)
	}
	if !sameTensor(out, runLocal(t, model, in)) {
		t.Fatal("gateway output differs from the local interpreter's")
	}
}
