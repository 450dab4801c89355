package suite

import (
	"fmt"
	"time"

	securetf "github.com/securetf/securetf"
)

// services are the TLS identities every workload's session may issue.
var services = []string{
	"gateway", "ocr-node", "classify-node", "redact-node", "router",
	"parameter-server", "localhost", "127.0.0.1",
}

// cluster is one workload's CAS and the attested nodes around it: the
// fully shielded production path (attestation → key and identity
// provisioning → FS shield → mutual-TLS net shield → SconeHW enclaves).
type cluster struct {
	rec    *Recorder
	parent int64 // the setup root span

	session     string
	image       securetf.Image
	volumeKey   []byte
	casPlatform *securetf.Platform
	cas         *securetf.CAS
	nodes       []*securetf.Container
	closers     []func()
	// attest is each node's attestation timing, in launch order.
	attest []securetf.AttestTiming
}

// startCluster starts the CAS. Nodes launched with node() run image and
// attest to one session that provisions the volume key "vol" and the
// service identities above.
func startCluster(rec *Recorder, parent int64, session string, image securetf.Image, seed int64) (*cluster, error) {
	cl := &cluster{rec: rec, parent: parent, session: session, image: image}
	cl.volumeKey = make([]byte, 32)
	for i := range cl.volumeKey {
		cl.volumeKey[i] = byte(seed>>uint(8*(i%8))) ^ byte(7*i+1)
	}
	var err error
	if cl.casPlatform, err = securetf.NewPlatform("cas-node"); err != nil {
		return nil, err
	}
	err = rec.Do(parent, "cas", "StartCAS", cl.casPlatform.Clock(), func() error {
		cl.cas, err = securetf.StartCAS(cl.casPlatform, securetf.NewMemFS())
		return err
	})
	if err != nil {
		return nil, err
	}
	cl.closers = append(cl.closers, func() { cl.cas.Close() })
	return cl, nil
}

// node launches a SconeHW container on its own platform, attests it to
// the CAS and provisions its shields. The first node registers the
// session. cfg supplies HostFS and FSShieldRules; Kind, Platform and
// Image are filled in.
func (cl *cluster) node(name string, cfg securetf.ContainerConfig) (*securetf.Container, error) {
	platform, err := securetf.NewPlatform(name)
	if err != nil {
		return nil, err
	}
	cl.cas.TrustPlatform(platform.Name(), platform.AttestationKey())
	cfg.Kind, cfg.Platform, cfg.Image = securetf.SconeHW, platform, cl.image
	if cfg.HostFS == nil {
		cfg.HostFS = securetf.NewMemFS()
	}
	clock := platform.Clock()
	var c *securetf.Container
	err = cl.rec.Do(cl.parent, "core", "Launch", clock, func() error {
		c, err = securetf.Launch(cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("launch %s: %w", name, err)
	}
	cl.closers = append(cl.closers, func() { c.Close() })
	var client *securetf.CASClient
	err = cl.rec.Do(cl.parent, "cas", "NewCASClient", clock, func() error {
		client, err = securetf.NewCASClient(c, cl.cas, cl.casPlatform, platform)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("CAS client %s: %w", name, err)
	}
	if len(cl.nodes) == 0 {
		err = cl.rec.Do(cl.parent, "cas", "Register", clock, func() error {
			return client.Register(&securetf.Session{
				Name:         cl.session,
				OwnerToken:   "bench-owner",
				Measurements: []string{c.Enclave().Measurement().Hex()},
				Volumes:      map[string][]byte{"vol": cl.volumeKey},
				Services:     services,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("register session: %w", err)
		}
	}
	var timing securetf.AttestTiming
	err = cl.rec.Do(cl.parent, "core", "Provision", clock, func() error {
		_, timing, err = c.Provision(client, cl.session, "vol")
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("provision %s: %w", name, err)
	}
	cl.nodes = append(cl.nodes, c)
	cl.attest = append(cl.attest, timing)
	return c, nil
}

// onClose registers a teardown step; steps run in reverse order.
func (cl *cluster) onClose(fn func()) { cl.closers = append(cl.closers, fn) }

// close tears the cluster down: servers and clients first, then the
// containers, then the CAS. A workload whose set-up failed before the
// cluster started closes a nil cluster.
func (cl *cluster) close() {
	if cl == nil {
		return
	}
	for i := len(cl.closers) - 1; i >= 0; i-- {
		cl.closers[i]()
	}
	cl.closers = nil
}

// clocks snapshots the virtual clocks of the given containers.
func clocks(nodes []*securetf.Container) []time.Duration {
	out := make([]time.Duration, len(nodes))
	for i, c := range nodes {
		out[i] = c.Clock().Now()
	}
	return out
}

// makespan is the largest clock advance since the snapshot: separate
// platforms run concurrently in the cost model, so the busiest node sets
// the virtual time of the phase.
func makespan(nodes []*securetf.Container, before []time.Duration) time.Duration {
	var m time.Duration
	for i, c := range nodes {
		if d := c.Clock().Now() - before[i]; d > m {
			m = d
		}
	}
	return m
}

// maxClock is the latest clock among the containers.
func maxClock(nodes []*securetf.Container) time.Duration {
	return makespan(nodes, make([]time.Duration, len(nodes)))
}

// enclaveStats sums the enclave counters of the containers.
func enclaveStats(nodes []*securetf.Container) securetf.EnclaveStats {
	var s securetf.EnclaveStats
	for _, c := range nodes {
		st := c.EnclaveStats()
		s.Transitions += st.Transitions
		s.AsyncSyscalls += st.AsyncSyscalls
		s.PageFaults += st.PageFaults
		s.BytesAccessed += st.BytesAccessed
		s.ComputeFLOPs += st.ComputeFLOPs
	}
	return s
}
