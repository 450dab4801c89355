package securetf_test

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
)

// TestServeSteadyReplay is serve-steady's row of the replay table
// (ROADMAP item 31): 20 unbatched requests for the densenet stand-in,
// served twice in one process, each time by a fresh SconeHW node with one
// replica. The outputs must be bit-equal.
//
// The bare leg has one client, no CAS, no TLS and the model registered
// from memory; its 20 virtual service times must repeat to the
// nanosecond. The shielded leg is the benchmark's path: the node and its
// client attest to a CAS that provisions mutual TLS and the volume key,
// the model is written and read through the FS shield, and two clients
// on connections of their own send ten requests each at once. Its
// service times are not yet known to repeat (serve-steady's op_p25_vms
// has read three values), so they are only compared: under -v it logs
// the first request whose ServiceVtime differs between the runs, and by
// how much, which shows where the runs part (open: item 5(a)).
func TestServeSteadyReplay(t *testing.T) {
	const requests = 20
	model, _ := servingModel()
	spec, stored := securetf.PaperModels()[0], model.Marshal()
	for _, leg := range []struct {
		name    string
		clients int
		pinned  bool // the service times must repeat
		// start starts a fresh node serving the model and returns the
		// container its clients dial from, its address and its name.
		start func(t *testing.T) (client *securetf.Container, addr, serverName string)
	}{
		{"bare", 1, true, func(t *testing.T) (*securetf.Container, string, string) {
			c := launchNode(t, "replay-node")
			gw := serveDensenet(t, c, securetf.ServingConfig{Replicas: 1, QueueCap: 16}, model, "densenet")
			return c, gw.Addr(), ""
		}},
		{"shielded", 2, false, func(t *testing.T) (*securetf.Container, string, string) {
			server, client := attestedPair(t)
			const path = "volumes/models/densenet.stfl"
			if err := securetf.WriteFile(server.FS(), path, stored); err != nil {
				t.Fatal(err)
			}
			gw := serveDensenet(t, server, securetf.ServingConfig{Replicas: 1, QueueCap: 16}, model)
			if err := gw.LoadModel("densenet", 1, path); err != nil {
				t.Fatal(err)
			}
			return client, gw.Addr(), "gateway"
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			// serve answers request i on client i % clients, each client
			// sending its requests in order, all clients at once.
			serve := func() (outs [][]uint32, vtimes []time.Duration) {
				client, addr, serverName := leg.start(t)
				outs, vtimes = make([][]uint32, requests), make([]time.Duration, requests)
				errs := make(chan error, leg.clients)
				var wg sync.WaitGroup
				for cl := range leg.clients {
					conn, err := securetf.DialModelServer(client, securetf.ModelClientConfig{Addr: addr, ServerName: serverName})
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := cl; i < requests; i += leg.clients {
							out, _, vt, err := conn.InferTimed("densenet", 0, securetf.RandomImageInput(spec, 1, int64(i)))
							if err != nil {
								errs <- err
								return
							}
							for _, v := range out.Floats() {
								outs[i] = append(outs[i], math.Float32bits(v))
							}
							vtimes[i] = vt
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				return outs, vtimes
			}
			outs1, vt1 := serve()
			outs2, vt2 := serve()
			for i := range requests {
				if !slices.Equal(outs1[i], outs2[i]) {
					t.Errorf("request %d: the second node's output differs from the first's", i)
				}
			}
			for i := range requests {
				if vt1[i] == vt2[i] {
					continue
				}
				if leg.pinned {
					t.Errorf("request %d is the first whose ServiceVtime differs: %v, then %v (%+v)", i, vt1[i], vt2[i], vt2[i]-vt1[i])
				} else {
					t.Logf("request %d is the first whose ServiceVtime differs: %v, then %v (%+v; open: item 5(a))", i, vt1[i], vt2[i], vt2[i]-vt1[i])
				}
				return
			}
			t.Logf("all %d ServiceVtimes repeat, request 0's %v and request 1's %v", requests, vt1[0], vt1[1])
		})
	}
}

// attestedPair starts a CAS and two SconeHW nodes of the Lite image on
// platforms of their own, a server whose FS shield encrypts
// volumes/models/ on a host directory, as serve-steady's does, and a
// client, and provisions both from one session:
// the server the volume key and both the "gateway" identity, so that
// the client reaches the server over mutual TLS.
func attestedPair(t *testing.T) (server, client *securetf.Container) {
	t.Helper()
	casPlat, serverPlat, clientPlat := newPlatform(t, "cas-node"), newPlatform(t, "serve-node"), newPlatform(t, "client-node")
	cas, err := securetf.StartCAS(casPlat, securetf.NewMemFS(), serverPlat, clientPlat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cas.Close() })
	server = launch(t, securetf.SconeHW, securetf.TFLiteImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform, cfg.HostFS = serverPlat, securetf.NewDirFS(t.TempDir())
		cfg.FSShieldRules = []securetf.Rule{securetf.EncryptPrefix("volumes/models/")}
	})
	client = launch(t, securetf.SconeHW, securetf.TFLiteImage(), func(cfg *securetf.ContainerConfig) {
		cfg.Platform = clientPlat
	})
	for i, c := range []*securetf.Container{server, client} {
		cc, err := securetf.NewCASClient(c, cas, casPlat, c.Platform())
		if err != nil {
			t.Fatal(err)
		}
		volume := ""
		if i == 0 {
			volume = "vol"
			if err := cc.Register(&securetf.Session{
				Name:         "replay",
				OwnerToken:   "tok",
				Measurements: []string{c.Enclave().Measurement().Hex()},
				Volumes:      map[string][]byte{"vol": make([]byte, 32)},
				Services:     []string{"gateway", "localhost", "127.0.0.1"},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := c.Provision(cc, "replay", volume); err != nil {
			t.Fatal(err)
		}
	}
	return server, client
}
