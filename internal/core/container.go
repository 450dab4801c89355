// Package core implements the secureTF controller — the paper's primary
// contribution (Fig. 2 and Fig. 3): a secure machine-learning container
// that assembles a shielded runtime (SCONE, or the Graphene/native
// baselines), the file-system and network shields, and CAS-provisioned
// secrets around the TensorFlow/TensorFlow Lite engines, so that
// unmodified model code runs with end-to-end protection of input data,
// models and code.
package core

import (
	"crypto/ecdsa"
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/graphene"
	"github.com/securetf/securetf/internal/nativert"
	"github.com/securetf/securetf/internal/scone"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/shield/fsshield"
	"github.com/securetf/securetf/internal/shield/netshield"
	"github.com/securetf/securetf/internal/vtime"
)

// RuntimeKind selects the execution environment of a container. The five
// kinds are exactly the systems compared in the paper's Figure 5.
type RuntimeKind int

// Runtime kinds.
const (
	RuntimeSconeHW RuntimeKind = iota + 1
	RuntimeSconeSIM
	RuntimeGraphene
	RuntimeNativeGlibc
	RuntimeNativeMusl
)

// String names the runtime kind as in the paper's figures.
func (k RuntimeKind) String() string {
	switch k {
	case RuntimeSconeHW:
		return "HW"
	case RuntimeSconeSIM:
		return "Sim"
	case RuntimeGraphene:
		return "Graphene"
	case RuntimeNativeGlibc:
		return "Native glibc"
	case RuntimeNativeMusl:
		return "Native musl"
	default:
		return "invalid"
	}
}

// Shielded reports whether the kind runs inside an enclave.
func (k RuntimeKind) Shielded() bool {
	switch k {
	case RuntimeSconeHW, RuntimeSconeSIM, RuntimeGraphene:
		return true
	default:
		return false
	}
}

// runtime is the common surface of the scone, graphene and native
// runtimes (satisfied structurally).
type runtime interface {
	Name() string
	Enclave() *sgx.Enclave
	Device(threads int) device.Device
	FS() fsapi.FS
	Dial(network, addr string) (net.Conn, error)
	Listen(network, addr string) (net.Listener, error)
	Close() error
}

var (
	_ runtime = (*scone.Runtime)(nil)
	_ runtime = (*graphene.Runtime)(nil)
	_ runtime = (*nativert.Runtime)(nil)
)

// Config configures a secure container.
type Config struct {
	// Kind selects the runtime. Required.
	Kind RuntimeKind
	// Platform hosts the enclave (unused for native kinds, where only
	// its meter is borrowed). Required.
	Platform *sgx.Platform
	// Image is the application image loaded into the enclave. Required
	// for shielded kinds.
	Image sgx.Image
	// HostFS is the untrusted host file system. Required.
	HostFS fsapi.FS
	// Threads is the container's compute parallelism. Defaults to the
	// platform's physical cores.
	Threads int

	// FSShieldRules enables the file-system shield over the runtime FS
	// when non-empty. The volume key comes from VolumeKey or from CAS
	// provisioning.
	FSShieldRules []fsshield.Rule
	// VolumeKey is the file-system shield volume key when not using CAS.
	VolumeKey *seccrypto.Key
	// Audit is the freshness service for the file-system shield
	// (optional; a CAS provisioning step can also install one).
	Audit fsshield.AuditService
}

// Container is a running secure ML container.
type Container struct {
	cfg     Config
	rt      runtime
	fs      fsapi.FS
	shield  *netshield.Shield
	casConn *cas.Client
}

// Launch assembles a container.
func Launch(cfg Config) (*Container, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("core: Config.Platform is required")
	}
	if cfg.HostFS == nil {
		return nil, fmt.Errorf("core: Config.HostFS is required")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = cfg.Platform.Params().PhysicalCores
	}

	var rt runtime
	var err error
	switch cfg.Kind {
	case RuntimeSconeHW, RuntimeSconeSIM:
		mode := sgx.ModeHW
		if cfg.Kind == RuntimeSconeSIM {
			mode = sgx.ModeSIM
		}
		rt, err = scone.Launch(scone.Config{
			Platform:       cfg.Platform,
			Mode:           mode,
			Image:          cfg.Image,
			HostFS:         cfg.HostFS,
			EnclaveThreads: cfg.Threads,
		})
	case RuntimeGraphene:
		rt, err = graphene.Launch(graphene.Config{
			Platform: cfg.Platform,
			Image:    cfg.Image,
			HostFS:   cfg.HostFS,
			Threads:  cfg.Threads,
		})
	case RuntimeNativeGlibc, RuntimeNativeMusl:
		libc := nativert.Glibc
		if cfg.Kind == RuntimeNativeMusl {
			libc = nativert.Musl
		}
		rt, err = nativert.Launch(nativert.Config{
			Meter:   cfg.Platform.Meter(),
			Libc:    libc,
			HostFS:  cfg.HostFS,
			Threads: cfg.Threads,
		})
	default:
		return nil, fmt.Errorf("core: invalid runtime kind %d", int(cfg.Kind))
	}
	if err != nil {
		return nil, fmt.Errorf("core: launching %v runtime: %w", cfg.Kind, err)
	}

	c := &Container{cfg: cfg, rt: rt, fs: rt.FS()}
	if len(cfg.FSShieldRules) > 0 && cfg.VolumeKey != nil {
		if err := c.enableFSShield(*cfg.VolumeKey); err != nil {
			rt.Close()
			return nil, err
		}
	}
	return c, nil
}

// enableFSShield layers the file-system shield over the runtime FS.
func (c *Container) enableFSShield(key seccrypto.Key) error {
	var meter fsshield.Meter
	if e := c.rt.Enclave(); e != nil {
		meter = fsshield.EnclaveMeter{Enclave: e}
	}
	s, err := fsshield.New(fsshield.Config{
		Inner:     c.rt.FS(),
		VolumeKey: key,
		Rules:     c.cfg.FSShieldRules,
		Meter:     meter,
		Audit:     c.cfg.Audit,
	})
	if err != nil {
		return fmt.Errorf("core: enabling file-system shield: %w", err)
	}
	c.fs = s
	return nil
}

// Kind returns the container's runtime kind.
func (c *Container) Kind() RuntimeKind { return c.cfg.Kind }

// Name returns the underlying runtime name.
func (c *Container) Name() string { return c.rt.Name() }

// Enclave returns the container's enclave (nil for native kinds).
func (c *Container) Enclave() *sgx.Enclave { return c.rt.Enclave() }

// Clock returns the container's virtual clock.
func (c *Container) Clock() *vtime.Clock { return c.cfg.Platform.Clock() }

// Platform returns the platform hosting the container.
func (c *Container) Platform() *sgx.Platform { return c.cfg.Platform }

// Params returns the platform's cost-model parameters.
func (c *Container) Params() sgx.Params { return c.cfg.Platform.Params() }

// EnclaveStats snapshots the enclave's hardware counters (transitions,
// page faults, traffic); the zero value is returned for native kinds.
func (c *Container) EnclaveStats() sgx.StatsSnapshot {
	if e := c.rt.Enclave(); e != nil {
		return e.Stats()
	}
	return sgx.StatsSnapshot{}
}

// FS returns the container's file-system view (shielded when enabled).
func (c *Container) FS() fsapi.FS { return c.fs }

// Device returns a compute device with the given thread count (0 uses
// the container default).
func (c *Container) Device(threads int) device.Device {
	if threads <= 0 {
		threads = c.cfg.Threads
	}
	return c.rt.Device(threads)
}

// Provision attests the container to a CAS session and installs the
// provisioned material: the named volume key for the file-system shield
// and the TLS identity for the network shield. It returns the full
// provision for application secrets, plus the attestation timing
// (Figure 4's subject).
func (c *Container) Provision(client *cas.Client, session, volume string) (*cas.Provision, cas.AttestTiming, error) {
	prov, timing, err := client.Attest(session)
	if err != nil {
		return nil, timing, err
	}
	c.casConn = client
	if len(c.cfg.FSShieldRules) > 0 {
		raw, ok := prov.Volumes[volume]
		if !ok {
			return nil, timing, fmt.Errorf("core: session %q provisions no volume %q", session, volume)
		}
		if len(raw) != seccrypto.KeySize {
			return nil, timing, fmt.Errorf("core: volume key %q has %d bytes", volume, len(raw))
		}
		var key seccrypto.Key
		copy(key[:], raw)
		if c.cfg.Audit == nil {
			c.cfg.Audit = client.AuditClient()
		}
		if err := c.enableFSShield(key); err != nil {
			return nil, timing, err
		}
	}
	if prov.Identity != nil {
		shield, err := netshield.New(netshield.Config{
			Meter:             c.cfg.Platform.Meter(),
			Identity:          *prov.Identity,
			RootCAs:           prov.CAPool,
			RequireClientCert: true,
		})
		if err != nil {
			return nil, timing, err
		}
		c.shield = shield
	}
	return prov, timing, nil
}

// Dial opens a connection through the runtime, wrapped by the network
// shield when provisioned.
func (c *Container) Dial(network, addr, serverName string) (net.Conn, error) {
	if c.shield != nil {
		return c.shield.Dial(c.rt.Dial, network, addr, serverName)
	}
	return c.rt.Dial(network, addr)
}

// Listen opens a listener through the runtime, wrapped by the network
// shield when provisioned.
func (c *Container) Listen(network, addr string) (net.Listener, error) {
	ln, err := c.rt.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	if c.shield != nil {
		return c.shield.WrapListener(ln), nil
	}
	return ln, nil
}

// NetShielded reports whether the network shield is active.
func (c *Container) NetShielded() bool { return c.shield != nil }

// Close shuts the container down, closing the connection its CAS client
// keeps for the shield's audit calls.
func (c *Container) Close() error {
	if c.casConn != nil {
		c.casConn.Close()
	}
	return c.rt.Close()
}

// TrustedKeys builds the platform trust store a cas.Client needs from a
// set of platforms (convenience for wiring clusters).
func TrustedKeys(platforms ...*sgx.Platform) map[string]*ecdsa.PublicKey {
	out := make(map[string]*ecdsa.PublicKey, len(platforms))
	for _, p := range platforms {
		out[p.Name()] = p.AttestationKey()
	}
	return out
}
