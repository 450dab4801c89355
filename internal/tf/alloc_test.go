package tf_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
)

// TestWarmRunAllocatesWhatItGivesAway is the memory plan's ceiling: a
// training worker's Run — the MNIST CNN's loss and every gradient at
// batch 50 — on a session that has run it before allocates the storage
// of the results the caller keeps and, beside that, only book-keeping:
// tensor headers, the evaluation maps, the matmul's goroutines.
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
	// The least of single runs, as TestMaskUploadAllocation takes: the
	// convolutions' scratch is the kernels' sync.Pool, which a collection
	// empties, and the run after it allocates its 100-odd KiB again. A run
	// allocates about the live heap, so collections come every other run
	// and may follow any three of five; a refill only adds bytes, so the
	// least run is the one that shows what Run itself allocates.
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
