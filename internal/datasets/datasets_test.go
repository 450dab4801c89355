package datasets

import (
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
)

func TestGenerateLoadMNIST(t *testing.T) {
	fsys := fsapi.NewMem()
	if err := GenerateMNIST(fsys, "mnist", 50, 20, 1); err != nil {
		t.Fatal(err)
	}
	images, labels, err := LoadMNIST(fsys, "mnist/train-images-idx3-ubyte", "mnist/train-labels-idx1-ubyte")
	if err != nil {
		t.Fatal(err)
	}
	if !images.Shape().Equal(tf.Shape{50, 28, 28, 1}) {
		t.Fatalf("images shape = %v", images.Shape())
	}
	if !labels.Shape().Equal(tf.Shape{50, 10}) {
		t.Fatalf("labels shape = %v", labels.Shape())
	}
	for _, v := range images.Floats() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
	// Every row one-hot.
	for r := 0; r < 50; r++ {
		var sum float32
		for c := 0; c < 10; c++ {
			sum += labels.Floats()[r*10+c]
		}
		if sum != 1 {
			t.Fatalf("label row %d sums to %v", r, sum)
		}
	}
	// Test split exists too.
	timg, _, err := LoadMNIST(fsys, "mnist/t10k-images-idx3-ubyte", "mnist/t10k-labels-idx1-ubyte")
	if err != nil {
		t.Fatal(err)
	}
	if timg.Shape()[0] != 20 {
		t.Fatalf("test count = %d", timg.Shape()[0])
	}
}

func TestMNISTDeterministic(t *testing.T) {
	fs1, fs2 := fsapi.NewMem(), fsapi.NewMem()
	if err := GenerateMNIST(fs1, "m", 10, 5, 7); err != nil {
		t.Fatal(err)
	}
	if err := GenerateMNIST(fs2, "m", 10, 5, 7); err != nil {
		t.Fatal(err)
	}
	a, _ := fsapi.ReadFile(fs1, "m/train-images-idx3-ubyte")
	b, _ := fsapi.ReadFile(fs2, "m/train-images-idx3-ubyte")
	if string(a) != string(b) {
		t.Fatal("same seed produced different data")
	}
}

// TestGenerateRejectsNegativeCounts: the counts arrive from command-line
// flags, so a negative one is an error, not a makeslice panic.
func TestGenerateRejectsNegativeCounts(t *testing.T) {
	fsys := fsapi.NewMem()
	for _, n := range [][2]int{{-5, 0}, {0, -5}} {
		if err := GenerateMNIST(fsys, "m", n[0], n[1], 1); err == nil {
			t.Errorf("GenerateMNIST(train %d, test %d) accepted", n[0], n[1])
		}
		if err := GenerateCIFAR10(fsys, "c", n[0], n[1], 1); err == nil {
			t.Errorf("GenerateCIFAR10(perBatch %d, batches %d) accepted", n[0], n[1])
		}
	}
}

func TestLoadMNISTRejectsCorruption(t *testing.T) {
	fsys := fsapi.NewMem()
	if err := GenerateMNIST(fsys, "m", 5, 2, 1); err != nil {
		t.Fatal(err)
	}
	raw, _ := fsapi.ReadFile(fsys, "m/train-images-idx3-ubyte")
	if err := fsapi.WriteFile(fsys, "m/train-images-idx3-ubyte", raw[:len(raw)-9]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadMNIST(fsys, "m/train-images-idx3-ubyte", "m/train-labels-idx1-ubyte"); err == nil {
		t.Fatal("truncated IDX accepted")
	}
}

func TestGenerateLoadCIFAR(t *testing.T) {
	fsys := fsapi.NewMem()
	if err := GenerateCIFAR10(fsys, "cifar", 30, 2, 2); err != nil {
		t.Fatal(err)
	}
	images, labels, err := LoadCIFAR10(fsys, "cifar/data_batch_1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !images.Shape().Equal(tf.Shape{30, 32, 32, 3}) {
		t.Fatalf("shape = %v", images.Shape())
	}
	if !labels.Shape().Equal(tf.Shape{30, 10}) {
		t.Fatalf("labels = %v", labels.Shape())
	}
	// Batch 2 and the test batch also exist.
	if _, _, err := LoadCIFAR10(fsys, "cifar/data_batch_2.bin"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCIFAR10(fsys, "cifar/test_batch.bin"); err != nil {
		t.Fatal(err)
	}
}

func TestMNISTLearnable(t *testing.T) {
	// The synthetic digits must be separable by the MLP: the whole point
	// of procedural data with class-conditional structure.
	fsys := fsapi.NewMem()
	if err := GenerateMNIST(fsys, "m", 200, 50, 3); err != nil {
		t.Fatal(err)
	}
	xs, ys, err := LoadMNIST(fsys, "m/train-images-idx3-ubyte", "m/train-labels-idx1-ubyte")
	if err != nil {
		t.Fatal(err)
	}
	h := models.MNISTMLP(11)
	train, err := tf.Minimize(h.Graph, tf.Adam{LR: 0.005}, h.Loss)
	if err != nil {
		t.Fatal(err)
	}
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	for i := 0; i < 40; i++ {
		if _, err := sess.Run(tf.Feeds{h.X: xs, h.Y: ys}, []*tf.Node{train}, tf.Training()); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sess.Run(tf.Feeds{h.X: xs, h.Y: ys}, []*tf.Node{h.Accuracy})
	if err != nil {
		t.Fatal(err)
	}
	if acc := out[0].Floats()[0]; acc < 0.9 {
		t.Fatalf("train accuracy = %v, want >= 0.9", acc)
	}
}

func TestCIFARLearnable(t *testing.T) {
	fsys := fsapi.NewMem()
	if err := GenerateCIFAR10(fsys, "c", 100, 1, 4); err != nil {
		t.Fatal(err)
	}
	xs, ys, err := LoadCIFAR10(fsys, "c/data_batch_1.bin")
	if err != nil {
		t.Fatal(err)
	}
	h := models.CIFARCNN(13)
	train, err := tf.Minimize(h.Graph, tf.Adam{LR: 0.003}, h.Loss)
	if err != nil {
		t.Fatal(err)
	}
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	for i := 0; i < 25; i++ {
		if _, err := sess.Run(tf.Feeds{h.X: xs, h.Y: ys}, []*tf.Node{train}, tf.Training()); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sess.Run(tf.Feeds{h.X: xs, h.Y: ys}, []*tf.Node{h.Accuracy})
	if err != nil {
		t.Fatal(err)
	}
	if acc := out[0].Floats()[0]; acc < 0.8 {
		t.Fatalf("train accuracy = %v, want >= 0.8", acc)
	}
}
