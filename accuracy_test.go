package securetf_test

import (
	"math"
	"runtime"
	"testing"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/tf"
)

const evalBlock = securetf.EvalBlock

// rows returns the first n rows of a set as views.
func rows(t *testing.T, xs, ys *securetf.Tensor, n int) (*securetf.Tensor, *securetf.Tensor) {
	t.Helper()
	bx, by, err := tf.Minibatch(xs, ys, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bx, by
}

// TestAccuracyMatchesOneRun: Accuracy in blocks returns the bits one Run
// of the Accuracy node over the whole set returns, at every edge of a
// block, for both models the benchmark evaluates.
func TestAccuracyMatchesOneRun(t *testing.T) {
	xs, ys := learnableDigits(3*evalBlock+5, 3)
	for name, build := range map[string]func(int64) securetf.Model{
		"cnn": securetf.NewMNISTCNN,
		"mlp": securetf.NewMNISTMLP,
	} {
		t.Run(name, func(t *testing.T) {
			m, err := securetf.OpenModel(nil, build(1), securetf.SGD{LR: 0.05}, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			// A few steps, so that some rows are classified right and some not.
			if err := m.TrainMore(xs, ys, 50, 3); err != nil {
				t.Fatal(err)
			}
			vars, err := m.Variables()
			if err != nil {
				t.Fatal(err)
			}
			ref := build(1)
			sess := tf.NewSession(ref.Graph)
			defer sess.Close()
			for name, v := range vars {
				if err := sess.SetVariable(name, v); err != nil {
					t.Fatal(err)
				}
			}
			var mixed bool
			for _, n := range []int{1, evalBlock - 1, evalBlock, evalBlock + 1, 3*evalBlock + 5} {
				bx, by := rows(t, xs, ys, n)
				out, err := sess.Run(tf.Feeds{ref.X: bx, ref.Y: by}, []*tf.Node{ref.Accuracy})
				if err != nil {
					t.Fatal(err)
				}
				want := float64(out[0].Floats()[0])
				got, err := m.Accuracy(bx, by)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%d rows: Accuracy = %v, one Run = %v", n, got, want)
				}
				mixed = mixed || (want > 0 && want < 1)
			}
			if !mixed {
				t.Fatal("every set classified all right or all wrong; the comparison shows nothing")
			}
		})
	}
}

// arenaAfter opens the CNN in a fresh container, runs do on it and
// returns how many bytes of the enclave the runs registered.
func arenaAfter(t *testing.T, do func(m *securetf.TrainedModel) error) int64 {
	t.Helper()
	c := launch(t, securetf.SconeSIM, securetf.TensorFlowImage())
	m, err := securetf.OpenModel(c, securetf.NewMNISTCNN(1), nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := c.Enclave().ResidentBytes()
	if err := do(m); err != nil {
		t.Fatal(err)
	}
	return c.Enclave().ResidentBytes() - before
}

// TestAccuracyRegistersOneBlock: a model that trains at batch 50 and
// then evaluates 1 000 rows keeps the larger of a training step's arena
// and one block's registered, not an arena for 1 000 rows.
func TestAccuracyRegistersOneBlock(t *testing.T) {
	xs, ys := learnableDigits(1000, 4)
	step := arenaAfter(t, func(m *securetf.TrainedModel) error { return m.TrainMore(xs, ys, 50, 1) })
	block := arenaAfter(t, func(m *securetf.TrainedModel) error {
		bx, by := rows(t, xs, ys, evalBlock)
		_, err := m.Accuracy(bx, by)
		return err
	})
	both := arenaAfter(t, func(m *securetf.TrainedModel) error {
		if err := m.TrainMore(xs, ys, 50, 1); err != nil {
			return err
		}
		_, err := m.Accuracy(xs, ys)
		return err
	})
	if step <= 0 || block <= 0 {
		t.Fatalf("a training step registered %d bytes and a block %d; want both registered", step, block)
	}
	if both > max(step, block) {
		t.Errorf("training and evaluating 1000 rows registered %d bytes, want at most %d (step %d, block %d)",
			both, max(step, block), step, block)
	}
}

// TestAccuracyAllocatesOneBlock: after a training step, an evaluation of
// four blocks draws one block's activations and computes the other three
// into them.
func TestAccuracyAllocatesOneBlock(t *testing.T) {
	xs, ys := learnableDigits(4*evalBlock, 5)
	block := arenaAfter(t, func(m *securetf.TrainedModel) error {
		bx, by := rows(t, xs, ys, evalBlock)
		_, err := m.Accuracy(bx, by)
		return err
	})
	var allocated uint64
	arenaAfter(t, func(m *securetf.TrainedModel) error {
		for range 2 { // the second round is the warm one
			if err := m.TrainMore(xs, ys, 50, 1); err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := m.Accuracy(xs, ys)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			allocated = after.TotalAlloc - before.TotalAlloc
		}
		return nil
	})
	t.Logf("an Accuracy over %d rows after a training step allocated %d bytes; one block's activations are %d", 4*evalBlock, allocated, block)
	if allocated >= uint64(2*block) {
		t.Errorf("an Accuracy over %d rows allocated %d bytes, want under twice one block's %d", 4*evalBlock, allocated, block)
	}
}
