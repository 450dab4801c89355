package dist_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/federated"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
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

// TestFederatedFramesDoNotGrowWithThePopulation: under one Turnstile the
// clients' links borrow their frame buffers from the turnstile's list
// and the coordinator's links from the coordinator's, and an idle link
// holds none. So a run of 16 clients through 3 rounds, with stragglers
// refused and survivors revealing seeds, moves its frames through a
// few buffers on each end, as many with 32 clients as with 16: links
// that each kept their own last frames used 128 here. A few more than
// the fewest show up where a serve loop gives its reply's buffer back
// after the next exchange has begun.
func TestFederatedFramesDoNotGrowWithThePopulation(t *testing.T) {
	const clients = 16
	var spy dist.FrameSpy
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := models.MNISTMLP(1)
	coord, err := federated.NewCoordinator(federated.CoordinatorConfig{
		Listener: spy.Listen(ln), Vars: dist.InitialVars(m.Graph), Clients: clients, Quorum: 12, Rounds: 3, Seed: 1,
		Codec: dist.Int8Compression(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	plan, err := dist.NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := federated.NewTurnstile()
	var cs []*federated.Client
	for id := range clients {
		clock := &vtime.Clock{}
		c, err := federated.NewClient(federated.ClientConfig{
			ID: id, Addr: ln.Addr().String(), Dial: spy.Dial, Plan: plan, Population: clients, Secret: []byte("cohort"),
			XS: tf.RandNormal(tf.Shape{10, 28, 28, 1}, 1, int64(id)), YS: tf.OneHot(make([]int, 10), 10),
			BatchSize: 10, LocalSteps: 1, LocalLR: 0.1, Codec: dist.Int8Compression(),
			Meter: sgx.NewMeter(clock, sgx.DefaultParams()), Turnstile: ts,
			Delay: func(uint64) time.Duration { return time.Duration(id) * time.Millisecond },
		})
		if err != nil {
			t.Fatal(err)
		}
		ts.Join(id, clock)
		cs = append(cs, c)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for id, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = c.Run()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats(); got.Rounds != 3 || got.Refusals == 0 || got.Reveals == 0 {
		t.Fatalf("the run committed %d rounds with %d refusals and %d reveals, want 3 with some of each", got.Rounds, got.Refusals, got.Reveals)
	}
	const most = 12
	if n := spy.Arrays(); n > most {
		t.Fatalf("%d clients' connections moved their frames through %d buffers, want at most %d", clients, n, most)
	}
	t.Logf("%d clients' connections moved their frames through %d buffers", clients, spy.Arrays())
}

// TestFederatedSessionsDoNotGrowWithThePopulation: a federated client
// holds a session of its plan only while it trains, so the sessions a
// Turnstile job opens are as many as its clients train at once — at most
// its cohort, however many clients it has. Each client used to open its
// own: 64 here.
func TestFederatedSessionsDoNotGrowWithThePopulation(t *testing.T) {
	const cohort = 8
	for _, clients := range []int{16, 64} {
		n := federatedSessions(t, clients, cohort)
		if n < 1 || n > cohort {
			t.Fatalf("a job of %d clients sampling %d a round opened %d sessions, want 1 to %d", clients, cohort, n, cohort)
		}
		t.Logf("a job of %d clients sampling %d a round opened %d sessions", clients, cohort, n)
	}
}

// federatedSessions runs two rounds of a Turnstile job of clients MNIST
// MLP clients, cohort sampled a round, and reports how many sessions
// their one plan opened.
func federatedSessions(t *testing.T, clients, cohort int) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := models.MNISTMLP(1)
	coord, err := federated.NewCoordinator(federated.CoordinatorConfig{
		Listener: ln, Vars: dist.InitialVars(m.Graph), Clients: clients, SampleFraction: float64(cohort) / float64(clients),
		Quorum: cohort - 2, Rounds: 2, Seed: 1, Codec: dist.Int8Compression(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	plan, err := dist.NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := federated.NewTurnstile()
	cs := make([]*federated.Client, clients)
	for id := range cs {
		clock := &vtime.Clock{}
		if cs[id], err = federated.NewClient(federated.ClientConfig{
			ID: id, Addr: ln.Addr().String(), Plan: plan, Population: clients, Secret: []byte("cohort"),
			XS: tf.RandNormal(tf.Shape{10, 28, 28, 1}, 1, int64(id)), YS: tf.OneHot(make([]int, 10), 10),
			BatchSize: 10, LocalSteps: 1, LocalLR: 0.1, Codec: dist.Int8Compression(),
			Meter: sgx.NewMeter(clock, sgx.DefaultParams()), Turnstile: ts,
		}); err != nil {
			t.Fatal(err)
		}
		ts.Join(id, clock)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for id, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = c.Run()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats(); got.Rounds != 2 || got.Accepted < 2*(cohort-2) {
		t.Fatalf("the job committed %d rounds of %d accepted uploads, want 2 of at least %d each", got.Rounds, got.Accepted, cohort-2)
	}
	return plan.Sessions()
}
