package dist_test

import (
	"net"
	"testing"

	"github.com/securetf/securetf/internal/federated"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
)

// TestFederatedFrameBuffersGoWithTheConnection holds a Link's other two
// holders, the federated client and the coordinator's serve loop, to the
// rule TestFrameBuffersGoWithTheConnection holds the worker and the
// shard to: after a client has run its rounds (Run closes it) and the
// coordinator has closed, nothing refers to a frame buffer of either
// end.
func TestFederatedFrameBuffersGoWithTheConnection(t *testing.T) {
	var spy dist.FrameSpy
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := models.MNISTMLP(1)
	coord, err := federated.NewCoordinator(federated.CoordinatorConfig{
		Listener: spy.Listen(ln), Vars: dist.InitialVars(m.Graph), Clients: 1, Quorum: 1, Rounds: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dist.NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := federated.NewClient(federated.ClientConfig{
		Addr: ln.Addr().String(), Dial: spy.Dial, Plan: plan, Population: 1, Secret: []byte("cohort"),
		XS: tf.RandNormal(tf.Shape{20, 28, 28, 1}, 1, 2), YS: tf.OneHot(make([]int, 20), 10),
		BatchSize: 10, LocalSteps: 1, LocalLR: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().Rounds; got != 2 {
		t.Fatalf("committed %d rounds, want 2", got)
	}
	coord.Close()
	spy.Released(t)
}
