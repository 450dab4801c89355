// Package core implements the secureTF controller — the paper's primary
// contribution (Fig. 2 and Fig. 3): a secure machine-learning container
// that assembles a shielded runtime (SCONE, or the Graphene/native
// baselines), the file-system and network shields, and CAS-provisioned
// secrets around the TensorFlow/TensorFlow Lite engines, so that
// unmodified model code runs with end-to-end protection of input data,
// models and code.
//
// The five runtimes are one type, runtime (runtime.go): a container's
// RuntimeKind decides what its enclave holds, its device's libc and
// what one crossing to the host costs, and internal/sysio spends those
// prices on every file and socket call.
package core

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"net"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/shield/fsshield"
	"github.com/securetf/securetf/internal/shield/netshield"
	"github.com/securetf/securetf/internal/sysio"
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
	if !k.valid() {
		return "invalid"
	}
	return runtimeRows[k].label
}

// valid reports whether k is one of the five kinds.
func (k RuntimeKind) valid() bool { return k >= RuntimeSconeHW && int(k) < len(runtimeRows) }

// Shielded reports whether the kind runs inside an enclave.
func (k RuntimeKind) Shielded() bool { return k.valid() && runtimeRows[k].mode != 0 }

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

	// FSShieldRules puts the file-system shield over the runtime FS
	// when non-empty (shielded kinds only). Its volume key and freshness
	// audit come from the CAS, at Provision; until then the container's
	// FS refuses every call with ErrNotProvisioned.
	FSShieldRules []fsshield.Rule
}

// ErrNotProvisioned is what a shielded container's file system returns
// until Provision has keyed it, so no file reaches the host in the
// clear before the CAS has released the volume key.
var ErrNotProvisioned = errors.New("core: file-system shield has no volume key until the container is provisioned")

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
	if !cfg.Kind.valid() {
		return nil, fmt.Errorf("core: invalid runtime kind %d", int(cfg.Kind))
	}
	if cfg.Threads <= 0 {
		cfg.Threads = cfg.Platform.Params().PhysicalCores
	}
	if len(cfg.FSShieldRules) > 0 && !cfg.Kind.Shielded() {
		return nil, fmt.Errorf("core: a %v container cannot attest, so it cannot key a file-system shield", cfg.Kind)
	}

	rt, err := launchRuntime(cfg)
	if err != nil {
		return nil, err
	}
	c := &Container{cfg: cfg, rt: rt, fs: unprovisioned{}}
	if len(cfg.FSShieldRules) == 0 {
		c.fs = sysio.NewFS(&c.rt, cfg.HostFS)
	}
	return c, nil
}

// unprovisioned is a shielded container's file system before Provision.
type unprovisioned struct{}

func (unprovisioned) Open(string) (fsapi.File, error)     { return nil, ErrNotProvisioned }
func (unprovisioned) Create(string) (fsapi.File, error)   { return nil, ErrNotProvisioned }
func (unprovisioned) Remove(string) error                 { return ErrNotProvisioned }
func (unprovisioned) Rename(string, string) error         { return ErrNotProvisioned }
func (unprovisioned) Stat(string) (fsapi.FileInfo, error) { return fsapi.FileInfo{}, ErrNotProvisioned }
func (unprovisioned) List(string) ([]string, error)       { return nil, ErrNotProvisioned }
func (unprovisioned) MkdirAll(string) error               { return ErrNotProvisioned }

// Kind returns the container's runtime kind.
func (c *Container) Kind() RuntimeKind { return c.cfg.Kind }

// Name returns the underlying runtime name.
func (c *Container) Name() string { return runtimeRows[c.cfg.Kind].name }

// Enclave returns the container's enclave (nil for native kinds).
func (c *Container) Enclave() *sgx.Enclave { return c.rt.enclave }

// Clock returns the container's virtual clock.
func (c *Container) Clock() *vtime.Clock { return c.cfg.Platform.Clock() }

// Platform returns the platform hosting the container.
func (c *Container) Platform() *sgx.Platform { return c.cfg.Platform }

// Params returns the platform's cost-model parameters.
func (c *Container) Params() sgx.Params { return c.cfg.Platform.Params() }

// EnclaveStats snapshots the enclave's hardware counters (transitions,
// page faults, traffic); the zero value is returned for native kinds.
func (c *Container) EnclaveStats() sgx.StatsSnapshot {
	if c.rt.enclave != nil {
		return c.rt.enclave.Stats()
	}
	return sgx.StatsSnapshot{}
}

// FS returns the container's file-system view (shielded when enabled).
func (c *Container) FS() fsapi.FS { return c.fs }

// Device returns a compute device with the given thread count (0 uses
// the container default) at the kind's libc factor: bound to the
// enclave, or a host CPU for the native kinds.
func (c *Container) Device(threads int) device.Device {
	if threads <= 0 {
		threads = c.cfg.Threads
	}
	row := runtimeRows[c.cfg.Kind]
	if c.rt.enclave == nil {
		return device.NewCPU(row.name, c.rt.meter, threads, row.libc)
	}
	return device.NewEnclave(row.name, c.rt.enclave, threads, row.libc)
}

// Provision attests the container to a CAS session and installs the
// provisioned material: the named volume key for the file-system shield,
// audited by the CAS for freshness, and the TLS identity for the network
// shield. It returns the full provision for application secrets, plus
// the attestation timing (Figure 4's subject).
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
		s, err := fsshield.New(fsshield.Config{
			Inner:     sysio.NewFS(&c.rt, c.cfg.HostFS),
			VolumeKey: key,
			Rules:     c.cfg.FSShieldRules,
			Meter:     fsshield.EnclaveMeter{Enclave: c.rt.enclave},
			Audit:     client.AuditClient(),
		})
		if err != nil {
			return nil, timing, fmt.Errorf("core: enabling file-system shield: %w", err)
		}
		c.fs = s
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
		return c.shield.Dial(c.rt.dial, network, addr, serverName)
	}
	return c.rt.dial(network, addr)
}

// Listen opens a listener through the runtime, wrapped by the network
// shield when provisioned.
func (c *Container) Listen(network, addr string) (net.Listener, error) {
	ln, err := c.rt.listen(network, addr)
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
	if c.rt.enclave != nil {
		c.rt.enclave.Destroy()
	}
	return nil
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
