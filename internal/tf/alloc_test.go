package tf_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
)

// TestWarmRunAllocatesWhatItGivesAway is the memory plan's ceiling: a
// training worker's Run — the MNIST CNN's loss and every gradient at
// batch 50 — on a session that has run it before allocates the storage
// of the results the caller keeps and, beside that, only book-keeping:
// tensor headers and the evaluation maps.
func TestWarmRunAllocatesWhatItGivesAway(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	m := models.MNISTCNN(1)
	_, grads, err := tf.GradientNodes(m.Graph, m.Loss)
	if err != nil {
		t.Fatal(err)
	}
	fetches := append([]*tf.Node{m.Loss}, grads...)
	labels := make([]int, 50)
	for i := range labels {
		labels[i] = i % 10
	}
	feeds := tf.Feeds{m.X: tf.RandNormal(tf.Shape{50, 28, 28, 1}, 1, 2), m.Y: tf.OneHot(labels, 10)}
	s := tf.NewSession(m.Graph)
	defer s.Close()

	var fetched int64
	run := func() {
		out, err := s.Run(feeds, fetches, tf.Training())
		if err != nil {
			t.Fatal(err)
		}
		fetched = 0
		for _, r := range out {
			fetched += r.Bytes()
		}
	}
	run()
	run()
	// The least of single runs, as TestMaskUploadAllocation takes. The
	// convolutions' scratch is a par.Free, which keeps its buffers through
	// a collection, so no warm run regrows it and runs differ by a few
	// dozen bytes (one a collection lands in reads 64 B more on a 2-vCPU
	// Xeon); the least is the one that shows what Run itself allocates.
	least := int64(math.MaxInt64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	if limit := fetched + 64<<10; least > limit {
		t.Fatalf("a warm Run allocated %d bytes, want at most the %d it returned + 64 KiB", least, fetched)
	}
	t.Logf("a warm Run allocated %d bytes, %d of them its results", least, fetched)
}

// TestWarmRunIntoAllocation is RunInto's ceiling: the Run above, with
// every gradient fetched into a tensor the caller keeps, allocates no
// result at all on a warm session — the gradients' storage stays in the
// session's slabs — and only book-keeping beside the 4-byte loss.
func TestWarmRunIntoAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	m := models.MNISTCNN(1)
	vars, grads, err := tf.GradientNodes(m.Graph, m.Loss)
	if err != nil {
		t.Fatal(err)
	}
	fetches := append([]*tf.Node{m.Loss}, grads...)
	into := []*tf.Tensor{nil}
	for _, v := range vars {
		into = append(into, tf.NewTensor(tf.Float32, v.Shape()))
	}
	feeds, _ := mnistFeeds(m)
	s := tf.NewSession(m.Graph)
	defer s.Close()
	run := func() {
		out, err := s.RunInto(feeds, fetches, into, tf.Training())
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(out); i++ {
			if out[i] != into[i] {
				t.Fatalf("fetch %d came back in a tensor of the session's, not the caller's", i)
			}
		}
	}
	run()
	run()
	// The least of single runs, for the reason TestWarmRunAllocatesWhatItGivesAway gives.
	least := int64(math.MaxInt64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	if least > 32<<10 {
		t.Fatalf("a warm RunInto allocated %d bytes, want at most 32 KiB", least)
	}
	t.Logf("a warm RunInto allocated %d bytes", least)
}

// TestWarmPlanAllocation: once a fetch list has run, a Run of it
// allocates nothing for its plan — no evaluation order, value table,
// tensor header or forward cache — so a warm training step of the
// MNIST MLP fetched into tensors the caller keeps allocates only the
// slice of results it returns: its options are applied by value.
func TestWarmPlanAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	m := models.MNISTMLP(1)
	vars, grads, err := tf.GradientNodes(m.Graph, m.Loss)
	if err != nil {
		t.Fatal(err)
	}
	fetches := append([]*tf.Node{m.Loss, m.Accuracy}, grads...)
	into := []*tf.Tensor{tf.NewTensor(tf.Float32, tf.Shape{}), tf.NewTensor(tf.Float32, tf.Shape{})}
	for _, v := range vars {
		into = append(into, tf.NewTensor(tf.Float32, v.Shape()))
	}
	feeds, _ := mnistFeeds(m)
	s := tf.NewSession(m.Graph)
	defer s.Close()
	run := func() {
		if _, err := s.RunInto(feeds, fetches, into, tf.Training()); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 1 {
		t.Fatalf("a warm RunInto made %v allocations, want at most 1: its results", allocs)
	}
	t.Logf("a warm RunInto made %v allocations", allocs)
}

// shortSessionParent is what TestShortSessionAllocation's four Runs
// allocated when a session matched its storage by exact size: each
// buffer at its first draw, and each result.
const shortSessionParent = 6_313_712

// TestShortSessionAllocation: a short-lived session — the bench's
// closing evaluation, a fresh MNIST-CNN session running its accuracy in
// four batch-64 Runs — allocates its layout's slabs once and its
// results, and no more than when each buffer was allocated at its first
// draw: a layout made before the first Run costs a short session
// nothing extra.
func TestShortSessionAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	m := models.MNISTCNN(1)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 10
	}
	feeds := tf.Feeds{m.X: tf.RandNormal(tf.Shape{64, 28, 28, 1}, 1, 2), m.Y: tf.OneHot(labels, 10)}
	// The least of five sessions, for the reason TestWarmRunAllocatesWhatItGivesAway gives.
	least, slab := int64(math.MaxInt64), int64(0)
	for range 5 {
		s := tf.NewSession(m.Graph)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 4 {
			if _, err := s.Run(feeds, []*tf.Node{m.Accuracy}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least, slab = min(least, int64(after.TotalAlloc-before.TotalAlloc)), tf.SlabBytes(s)
		s.Close()
	}
	if least > shortSessionParent {
		t.Fatalf("four Runs of a fresh session allocated %d bytes, want at most the %d of exact-size matching", least, shortSessionParent)
	}
	t.Logf("four Runs of a fresh session allocated %d bytes, %d of them its slabs", least, slab)
}

// TestRunIntoMatchesRun: what RunInto copies into the caller's tensors
// is bit for bit what Run gives away, Run after Run, on two sessions
// that started alike.
func TestRunIntoMatchesRun(t *testing.T) {
	m := models.MNISTCNN(1)
	vars, grads, err := tf.GradientNodes(m.Graph, m.Loss)
	if err != nil {
		t.Fatal(err)
	}
	fetches := append([]*tf.Node{m.Loss}, grads...)
	into := []*tf.Tensor{nil}
	for _, v := range vars {
		into = append(into, tf.NewTensor(tf.Float32, v.Shape()))
	}
	feeds, _ := mnistFeeds(m)
	a, b := tf.NewSession(m.Graph), tf.NewSession(m.Graph)
	defer a.Close()
	defer b.Close()
	for k := range 3 {
		want, err := a.Run(feeds, fetches, tf.Training())
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.RunInto(feeds, fetches, into, tf.Training())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !slices.Equal(bitsOf(got[i]), bitsOf(want[i])) {
				t.Errorf("run %d: fetch %q differs between RunInto and Run", k, fetches[i].Name())
			}
		}
	}
}

// TestRunIntoChecksBeforeWriting: a tensor of the wrong element count or
// dtype in into is an error, and none of into is written — not even the
// fetches before the one that does not fit.
func TestRunIntoChecksBeforeWriting(t *testing.T) {
	m := models.MNISTMLP(1)
	vars, grads, err := tf.GradientNodes(m.Graph, m.Loss)
	if err != nil {
		t.Fatal(err)
	}
	feeds, _ := mnistFeeds(m)
	s := tf.NewSession(m.Graph)
	defer s.Close()
	for name, bad := range map[string]*tf.Tensor{
		"element count": tf.Fill(tf.Shape{vars[1].Shape().NumElements() + 1}, 7),
		"dtype":         tf.NewTensor(tf.Int32, vars[1].Shape()),
	} {
		first := tf.Fill(vars[0].Shape(), 7)
		if _, err := s.RunInto(feeds, grads[:2], []*tf.Tensor{first, bad}); err == nil {
			t.Errorf("%s: RunInto accepted a tensor that does not fit", name)
		}
		for _, v := range first.Floats() {
			if v != 7 {
				t.Fatalf("%s: RunInto wrote into the caller's tensors before refusing one", name)
			}
		}
	}
	if _, err := s.RunInto(feeds, grads, make([]*tf.Tensor, len(grads)-1)); err == nil {
		t.Error("RunInto accepted fewer tensors than fetches")
	}
}

// TestTrainingRunLeavesFeedsUnchanged holds what lets Minibatch feed
// views of a data shard: a training Run — loss, every gradient and an
// optimizer's apply — of the MNIST CNN and MLP writes none of its feeds.
func TestTrainingRunLeavesFeedsUnchanged(t *testing.T) {
	for name, m := range map[string]models.Handles{"cnn": models.MNISTCNN(1), "mlp": models.MNISTMLP(1)} {
		_, grads, err := tf.GradientNodes(m.Graph, m.Loss)
		if err != nil {
			t.Fatal(err)
		}
		train, err := tf.Minimize(m.Graph, tf.SGD{LR: 0.05}, m.Loss)
		if err != nil {
			t.Fatal(err)
		}
		feeds, saved := mnistFeeds(m)
		s := tf.NewSession(m.Graph)
		for range 2 {
			if _, err := s.Run(feeds, append([]*tf.Node{m.Loss, train}, grads...), tf.Training()); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		for node, t0 := range saved {
			if !slices.Equal(bitsOf(feeds[node]), bitsOf(t0)) {
				t.Errorf("%s: a training Run wrote its feed %q", name, node.Name())
			}
		}
	}
}

// mnistFeeds is a batch of 50 noise images and cycling labels for an MNIST
// model, and a copy of each feed to compare with afterwards.
func mnistFeeds(m models.Handles) (feeds, saved tf.Feeds) {
	labels := make([]int, 50)
	for i := range labels {
		labels[i] = i % 10
	}
	feeds = tf.Feeds{m.X: tf.RandNormal(tf.Shape{50, 28, 28, 1}, 1, 2), m.Y: tf.OneHot(labels, 10)}
	saved = make(tf.Feeds, len(feeds))
	for node, t := range feeds {
		saved[node] = t.Clone()
	}
	return feeds, saved
}

// bitsOf is a float tensor's elements as bits, so NaNs compare too.
func bitsOf(t *tf.Tensor) []uint32 {
	out := make([]uint32, 0, t.NumElements())
	for _, v := range t.Floats() {
		out = append(out, math.Float32bits(v))
	}
	return out
}

// BenchmarkTrainStep times the Run above — a training worker's step, the
// MNIST CNN's loss and every gradient at batch 50 — on a warm session:
// the wall cost of one train-sync worker step's compute, which
// -cpuprofile breaks down by kernel without the bench/ harness.
func BenchmarkTrainStep(b *testing.B) {
	m := models.MNISTCNN(1)
	_, grads, err := tf.GradientNodes(m.Graph, m.Loss)
	if err != nil {
		b.Fatal(err)
	}
	fetches := append([]*tf.Node{m.Loss}, grads...)
	labels := make([]int, 50)
	for i := range labels {
		labels[i] = i % 10
	}
	feeds := tf.Feeds{m.X: tf.RandNormal(tf.Shape{50, 28, 28, 1}, 1, 2), m.Y: tf.OneHot(labels, 10)}
	s := tf.NewSession(m.Graph)
	defer s.Close()
	run := func() {
		if _, err := s.Run(feeds, fetches, tf.Training()); err != nil {
			b.Fatal(err)
		}
	}
	run() // warms the session
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
}
