package router

import (
	"runtime"
	"slices"
	"sync"
	"testing"

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

// TestWarmServingRoundAllocation bounds what one warm round allocates
// end to end — client, router and gateway all in this process — for a
// 16×784 request to a placed model: the response tensors and small
// change, not a 50 KB frame or input tensor at either hop.
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
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Infer("ocr", 0, in); err != nil {
			t.Fatal(err)
		}
	}
	perRound := make([]uint64, 7)
	for i := range perRound {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := cl.Infer("ocr", 0, in); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRound[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(perRound)
	median := perRound[len(perRound)/2]
	if median > 8<<10 {
		t.Fatalf("a warm router → gateway round allocated %d bytes, want at most 8 KiB (the input is %d)", median, 4*in.NumElements())
	}
	t.Logf("a warm router → gateway round allocated %d bytes", median)
}
