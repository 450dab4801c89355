package tf_test

import (
	"testing"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
)

// TestZooGradientsLeaveNoOrphans: the gradient nodes GradientNodes adds
// to each zoo training graph are all read by a gradient it returns; none
// is a gradient into a placeholder, which a loader would check and
// MarshalGraph save for no Run.
func TestZooGradientsLeaveNoOrphans(t *testing.T) {
	for _, c := range []struct {
		name string
		m    models.Handles
	}{{"MNISTMLP", models.MNISTMLP(1)}, {"MNISTCNN", models.MNISTCNN(1)}, {"CIFARCNN", models.CIFARCNN(1)}} {
		before := len(c.m.Graph.Nodes())
		_, grads, err := tf.GradientNodes(c.m.Graph, c.m.Loss)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range tf.Orphans(c.m.Graph.Nodes()[before:], grads) {
			t.Errorf("%s: %s %q is read by no gradient", c.name, n.Op(), n.Name())
		}
	}
}
