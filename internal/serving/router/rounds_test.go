package router

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/serving"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
)

// TestEnsembleReadsTheReusedInput runs an Ensemble, whose branches read
// the request's input concurrently, on connections that decode every
// request into the same tensor. Under -race this is the check that no
// branch still reads the input when the next request overwrites it.
func TestEnsembleReadsTheReusedInput(t *testing.T) {
	platform := newPlatform(t)
	a := startNode(t, platform, map[string]*tflite.Model{"x2": fcModel(8, 8, scaled(2))})
	b := startNode(t, platform, map[string]*tflite.Model{"x4": fcModel(8, 8, scaled(4)), "x6": fcModel(8, 8, scaled(6))})
	rc := launchOn(t, platform)
	r, err := New(rc, "127.0.0.1:0", Config{
		Nodes: []NodeSpec{
			{Name: "a", Addr: a.Addr(), Models: []string{"x2"}},
			{Name: "b", Addr: b.Addr(), Models: []string{"x4", "x6"}},
		},
		Graphs: []GraphSpec{{Name: "blend", Nodes: map[string]GraphNode{
			"root": {Kind: Ensemble, Steps: []GraphStep{{Model: "x2"}, {Model: "x4"}, {Model: "x6"}}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for client := 0; client < 2; client++ {
		cl, err := DialClient(launchOn(t, platform), r.Addr(), "", ClientConfig{ExpectGraphs: []string{"blend"}})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				in := tf.RandNormal(tf.Shape{4, 8}, 1, int64(100*client+round))
				out, _, err := cl.Infer("blend", 0, in)
				if err != nil {
					errs <- err
					return
				}
				branches := make([]*tf.Tensor, 3)
				for i, scale := range []float32{2, 4, 6} {
					branches[i] = in.Clone()
					for j := range branches[i].Floats() {
						branches[i].Floats()[j] *= scale
					}
				}
				want, err := meanTensors(branches)
				if err != nil {
					errs <- err
					return
				}
				for i, v := range out.Floats() {
					if v != want.Floats()[i] {
						t.Errorf("client %d round %d: blend[%d] = %v, want %v", client, round, i, v, want.Floats()[i])
						return
					}
				}
			}
		}(client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// warmRoundBytes is the median of what seven warm rounds allocate end
// to end, after three to warm up.
func warmRoundBytes(t *testing.T, round func() error) uint64 {
	t.Helper()
	for i := 0; i < 3; i++ {
		if err := round(); err != nil {
			t.Fatal(err)
		}
	}
	perRound := make([]uint64, 7)
	for i := range perRound {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := round(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRound[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perRound)
	return perRound[len(perRound)/2]
}

// TestWarmServingRoundAllocation bounds what one warm round allocates
// end to end — client, router and gateway all in this process — for a
// 16×784 request to a placed model: the client's decode of the 16×10
// reply (704 bytes) and small change. The gateway's interpreter keeps
// its output, the gateway copies the rows into the connection's reply
// tensor, and the router decodes the reply into its connection's stage
// tensor, so no hop allocates a tensor, a frame or a request record.
func TestWarmServingRoundAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	platform := newPlatform(t)
	g := startNode(t, platform, map[string]*tflite.Model{"ocr": fcModel(784, 10, scaled(1))})
	rc := launchOn(t, platform)
	r, err := New(rc, "127.0.0.1:0", Config{Nodes: []NodeSpec{{Name: "n", Addr: g.Addr(), Models: []string{"ocr"}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cl, err := DialClient(launchOn(t, platform), r.Addr(), "", ClientConfig{ExpectModels: []string{"ocr"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	in := tf.RandNormal(tf.Shape{16, 784}, 1, 3)
	bytes := warmRoundBytes(t, func() error { _, _, err := cl.Infer("ocr", 0, in); return err })
	if bytes > 1<<10 {
		t.Fatalf("a warm router → gateway round allocated %d bytes, want at most 1 KiB (the input is %d)", bytes, 4*in.NumElements())
	}
	t.Logf("a warm router → gateway round allocated %d bytes", bytes)
}

// stageModel hand-builds serve-fleet's classify stage: a softmax over
// k columns, then fcModel's FullyConnected to n.
func stageModel(k, n int, w func(i, j int) float32) *tflite.Model {
	m := fcModel(k, n, w)
	m.Tensors = append(m.Tensors, tflite.TensorSpec{Name: "probs", Type: tflite.TypeFloat32, Shape: []int{-1, k}, Buffer: -1})
	m.Ops = []tflite.OpSpec{
		{Code: tflite.OpSoftmax, Inputs: []int{0}, Outputs: []int{3}},
		{Code: tflite.OpFullyConnected, Inputs: []int{3, 1}, Outputs: []int{2}},
	}
	return m
}

// TestWarmServingGraphAllocation is the round above in serve-fleet's
// shape: a three-stage Sequence graph (784→10, 10→11 with a softmax,
// 11→11), each stage on a gateway of its own that micro-batches up to
// 16 rows, fed 16-row documents, which fill a batch and so arm no batch
// window. The client's decode of the 16×11 reply is 752 bytes; the
// router's stage replies, step records and trace slots are its
// connection's and its own.
func TestWarmServingGraphAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	platform := newPlatform(t)
	cfg := serving.Config{MaxBatch: 16, BatchWindow: 2 * time.Millisecond}
	stages := []struct {
		name  string
		model *tflite.Model
	}{
		{"ocr", fcModel(784, 10, scaled(1))},
		{"classify", stageModel(10, 11, scaled(1))},
		{"redact", fcModel(11, 11, scaled(2))},
	}
	var (
		nodes []NodeSpec
		steps []GraphStep
	)
	for _, s := range stages {
		g := startNodeWith(t, platform, cfg, map[string]*tflite.Model{s.name: s.model})
		nodes = append(nodes, NodeSpec{Name: s.name + "-node", Addr: g.Addr(), Models: []string{s.name}})
		steps = append(steps, GraphStep{Model: s.name})
	}
	r, err := New(launchOn(t, platform), "127.0.0.1:0", Config{
		Nodes:  nodes,
		Graphs: []GraphSpec{{Name: "digitize", Nodes: map[string]GraphNode{"root": {Kind: Sequence, Steps: steps}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cl, err := DialClient(launchOn(t, platform), r.Addr(), "", ClientConfig{ExpectGraphs: []string{"digitize"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	in := tf.RandNormal(tf.Shape{16, 784}, 1, 3)
	bytes := warmRoundBytes(t, func() error { _, _, err := cl.Infer("digitize", 0, in); return err })
	if bytes > 1536 {
		t.Fatalf("a warm three-stage graph round allocated %d bytes, want at most 1.5 KiB", bytes)
	}
	t.Logf("a warm three-stage graph round allocated %d bytes", bytes)
}
