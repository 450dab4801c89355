package tf_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
)

// recordingDevice is a null device that remembers what was registered.
type recordingDevice struct {
	*device.Null
	allocs map[string]int64
}

func (d *recordingDevice) Alloc(name string, bytes int64) { d.allocs[name] = bytes }

// cnnStepSlab is the bytes of the slabs a batch-50 MNIST-CNN training
// step (the loss and an SGD apply, train-sync's worker step and the
// bench's tf.train_step) lays out: the most its buffers hold live at one
// node, the transposed first dense layer's weights among them.
const cnnStepSlab = 4_791_744

// TestCNNStepArenaIsThePlannedPeak: the arena a batch-50 MNIST-CNN
// training step registers is its slabs plus its Const values (the
// gradient's seed), and the slabs are the most its buffers hold live at
// one node, to the byte.
func TestCNNStepArenaIsThePlannedPeak(t *testing.T) {
	m := models.MNISTCNN(1)
	train, err := tf.Minimize(m.Graph, tf.SGD{LR: 0.05}, m.Loss)
	if err != nil {
		t.Fatal(err)
	}
	dev := &recordingDevice{Null: device.NewNull(), allocs: map[string]int64{}}
	s := tf.NewSession(m.Graph, tf.WithDevice(dev))
	defer s.Close()
	feeds, _ := mnistFeeds(m)
	if _, err := s.Run(feeds, []*tf.Node{m.Loss, train}, tf.Training()); err != nil {
		t.Fatal(err)
	}
	slab, peak, arena := tf.SlabBytes(s), tf.PeakLiveBytes(s), dev.allocs["tf/arena"]
	t.Logf("tf/arena %d B: slabs %d B, at most %d B live at once", arena, slab, peak)
	if slab != peak || slab != cnnStepSlab {
		t.Errorf("the step's slabs are %d bytes, at most %d are live at once; want both %d", slab, peak, cnnStepSlab)
	}
	if const4 := int64(4); arena != slab+const4 {
		t.Errorf("tf/arena is %d bytes, want the slabs' %d plus the seed's %d", arena, slab, const4)
	}
}

// cnnStepGolden hashes the losses of three batch-50 MNIST-CNN SGD steps
// and the variables after them, as TestPlannedCNNStepBitEqual runs them.
// It was recorded on a session that matched storage by exact size and
// whose Relu gradients read the Relus' inputs.
const cnnStepGolden = "2f35d7c4427c469958342dcfb9cc2e7a961b618cfb7e73fff63737bdd5326d04"

// TestPlannedCNNStepBitEqual: three MNIST-CNN training steps at batch 50
// — the loss and an SGD apply, through Relu gradients that read the
// Relus' outputs and ops computed in place — each run on slabs left
// full of NaN, give the loss and variables a fresh session holding the
// same variables gives, and the bits recorded before either change.
func TestPlannedCNNStepBitEqual(t *testing.T) {
	m := models.MNISTCNN(1)
	train, err := tf.Minimize(m.Graph, tf.SGD{LR: 0.05}, m.Loss)
	if err != nil {
		t.Fatal(err)
	}
	fetches := []*tf.Node{m.Loss, train}
	warm := tf.NewSession(m.Graph)
	defer warm.Close()
	h := sha256.New()
	for k := range 3 {
		labels := make([]int, 50)
		for i := range labels {
			labels[i] = (i + k) % 10
		}
		feeds := tf.Feeds{m.X: tf.RandNormal(tf.Shape{50, 28, 28, 1}, 1, int64(2+k)), m.Y: tf.OneHot(labels, 10)}
		fresh := tf.NewSession(m.Graph)
		for _, name := range warm.VariableNames() {
			v, _ := warm.Variable(name)
			if err := fresh.SetVariable(name, v); err != nil {
				t.Fatal(err)
			}
		}
		got, err := warm.Run(feeds, fetches, tf.Training())
		if err != nil {
			t.Fatal(err)
		}
		tf.Dirty(warm)
		want, err := fresh.Run(feeds, fetches, tf.Training())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bitsOf(got[0]), bitsOf(want[0])) {
			t.Errorf("step %d: loss %v, a fresh session's %v", k, got[0].Floats(), want[0].Floats())
		}
		for _, name := range warm.VariableNames() {
			a, _ := warm.Variable(name)
			b, _ := fresh.Variable(name)
			if !slices.Equal(bitsOf(a), bitsOf(b)) {
				t.Errorf("step %d: variable %q differs from a fresh session's", k, name)
			}
		}
		fresh.Close()
		binary.Write(h, binary.LittleEndian, math.Float32bits(got[0].Floats()[0]))
	}
	for _, name := range warm.VariableNames() {
		v, _ := warm.Variable(name)
		binary.Write(h, binary.LittleEndian, bitsOf(v))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cnnStepGolden {
		t.Errorf("three steps hash to %s, want %s", got, cnnStepGolden)
	}
}
