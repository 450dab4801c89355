package securetf_test

import (
	"net"
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
)

// TestShieldedListenersSurviveBadHandshake pins the accept-error
// contract of the shared connection substrate at the facade. A shielded
// listener completes the TLS handshake inside Accept, so a peer that
// speaks anything else makes Accept return an error; that must cost the
// server one connection, not its accept loop. Every shielded server is
// probed the same way: a raw TCP peer writes a non-TLS line and
// disconnects, then an attested client must still complete the
// mutual-TLS handshake — which only a live accept loop can answer.
func TestShieldedListenersSurviveBadHandshake(t *testing.T) {
	casPlat := newPlatform(t, "cas-node")
	serverPlat := newPlatform(t, "server-node")
	clientPlat := newPlatform(t, "client-node")
	cas, err := securetf.StartCAS(casPlat, securetf.NewMemFS(), serverPlat, clientPlat)
	if err != nil {
		t.Fatal(err)
	}
	defer cas.Close()

	// Server and client run the same image, so one session admits both.
	serverC := launch(t, securetf.SconeHW, securetf.TensorFlowImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform = serverPlat
	})
	clientC := launch(t, securetf.SconeHW, securetf.TensorFlowImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform = clientPlat
	})
	serverCAS, err := securetf.NewCASClient(serverC, cas, casPlat, serverPlat)
	if err != nil {
		t.Fatal(err)
	}
	if err := serverCAS.Register(&securetf.Session{
		Name:         "substrate",
		OwnerToken:   "tok",
		Measurements: []string{serverC.Enclave().Measurement().Hex()},
		Services:     []string{"node", "localhost", "127.0.0.1"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := serverC.Provision(serverCAS, "substrate", ""); err != nil {
		t.Fatal(err)
	}
	clientCAS, err := securetf.NewCASClient(clientC, cas, casPlat, clientPlat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := clientC.Provision(clientCAS, "substrate", ""); err != nil {
		t.Fatal(err)
	}
	if !serverC.NetShielded() || !clientC.NetShielded() {
		t.Fatal("network shield inactive after provisioning")
	}

	newModel := func() securetf.Model { return securetf.NewMNISTMLP(1) }
	cases := []struct {
		name  string
		start func(t *testing.T) (addr string, stop func() error)
	}{
		{"ServeModels", func(t *testing.T) (string, func() error) {
			gw, err := securetf.ServeModels(serverC, securetf.ModelServerConfig{Addr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			return gw.Addr(), gw.Close
		}},
		{"StartParameterServer", func(t *testing.T) (string, func() error) {
			ps, addr, err := securetf.StartParameterServer(serverC, "127.0.0.1:0", securetf.InitialVariables(newModel()), 1, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			return addr.String(), ps.Close
		}},
		{"StartFederatedAggregator", func(t *testing.T) (string, func() error) {
			coord, addr, err := securetf.StartFederatedAggregator(serverC, "127.0.0.1:0", securetf.FederatedConfig{
				Clients: 1, Quorum: 1, Rounds: 1, NewModel: newModel,
			})
			if err != nil {
				t.Fatal(err)
			}
			return addr, coord.Close
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			addr, stop := c.start(t)
			defer stop()

			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write([]byte("not tls\n")); err != nil {
				t.Fatal(err)
			}
			raw.Close()

			dialed := make(chan error, 1)
			go func() {
				conn, err := clientC.Dial("tcp", addr, "node")
				if err == nil {
					conn.Close()
				}
				dialed <- err
			}()
			select {
			case err := <-dialed:
				if err != nil {
					t.Fatalf("attested dial after the bad handshake: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no handshake answered after a non-TLS peer: the accept loop is gone")
			}
		})
	}
}
