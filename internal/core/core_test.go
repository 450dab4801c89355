package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/shield/fsshield"
	"github.com/securetf/securetf/internal/tflite"
)

func newPlatform(t *testing.T, name string) *sgx.Platform {
	t.Helper()
	p, err := sgx.NewPlatform(name, sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func launchContainer(t *testing.T, kind RuntimeKind, mods ...func(*Config)) *Container {
	t.Helper()
	cfg := Config{
		Kind:     kind,
		Platform: newPlatform(t, "node"),
		Image:    sgx.SyntheticImage("tflite-app", tflite.BinarySize, 4<<20),
		HostFS:   fsapi.NewMem(),
	}
	for _, m := range mods {
		m(&cfg)
	}
	c, err := Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLaunchAllRuntimeKinds(t *testing.T) {
	for _, kind := range []RuntimeKind{
		RuntimeSconeHW, RuntimeSconeSIM, RuntimeGraphene, RuntimeNativeGlibc, RuntimeNativeMusl,
	} {
		c := launchContainer(t, kind)
		if (c.Enclave() != nil) != kind.Shielded() {
			t.Fatalf("%v: enclave presence mismatch", kind)
		}
		if err := fsapi.WriteFile(c.FS(), "f", []byte("x")); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got, err := fsapi.ReadFile(c.FS(), "f")
		if err != nil || string(got) != "x" {
			t.Fatalf("%v: fs round trip failed: %v", kind, err)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Launch(Config{Platform: newPlatform(t, "p"), HostFS: fsapi.NewMem(), Kind: RuntimeKind(42)}); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

// TestFSShieldIntegration: the volume key a CAS provisions keeps a
// model ciphertext on the host, the container reads it back through the
// shield, and so does a second container the CAS provisions from the
// same session.
func TestFSShieldIntegration(t *testing.T) {
	cl := newCASCluster(t)
	host := fsapi.NewMem()
	c := cl.provisioned(t, host)
	secret := []byte("proprietary model weights")
	if err := fsapi.WriteFile(c.FS(), "volumes/data/m.tflite", secret); err != nil {
		t.Fatal(err)
	}
	// Host sees ciphertext only.
	raw, err := fsapi.ReadFile(host, "volumes/data/m.tflite")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Fatal("model stored in plaintext on the host")
	}
	got, err := fsapi.ReadFile(c.FS(), "volumes/data/m.tflite")
	if err != nil || string(got) != string(secret) {
		t.Fatalf("shielded read failed: %v", err)
	}
	again := cl.provisioned(t, host)
	if got, err := fsapi.ReadFile(again.FS(), "volumes/data/m.tflite"); err != nil || string(got) != string(secret) {
		t.Fatalf("second container's shielded read: %q, %v", got, err)
	}
}

// TestShieldRefusesUntilProvisioned: a container launched with shield
// rules has no volume key until the CAS provisions one, and until then
// its file system refuses every call, so nothing it writes reaches the
// host in the clear. Provisioning the same container opens it.
func TestShieldRefusesUntilProvisioned(t *testing.T) {
	cl := newCASCluster(t)
	host := fsapi.NewMem()
	c, client := cl.node(t, host)
	secret := []byte("proprietary model weights")
	if err := fsapi.WriteFile(c.FS(), "volumes/data/m.tflite", secret); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("write before Provision: err = %v, want ErrNotProvisioned", err)
	}
	if raw, err := fsapi.ReadFile(host, "volumes/data/m.tflite"); err == nil {
		t.Fatalf("the host holds %q written before Provision", raw)
	}
	fsys := c.FS()
	for name, err := range map[string]error{
		"Create":   func() error { _, err := fsys.Create("plain.txt"); return err }(),
		"Open":     func() error { _, err := fsys.Open("plain.txt"); return err }(),
		"Stat":     func() error { _, err := fsys.Stat("plain.txt"); return err }(),
		"List":     func() error { _, err := fsys.List(""); return err }(),
		"Remove":   fsys.Remove("plain.txt"),
		"Rename":   fsys.Rename("plain.txt", "other.txt"),
		"MkdirAll": fsys.MkdirAll("volumes/data"),
	} {
		if !errors.Is(err, ErrNotProvisioned) {
			t.Errorf("%s before Provision: err = %v, want ErrNotProvisioned", name, err)
		}
	}
	if names, _ := host.List(""); len(names) != 0 {
		t.Fatalf("the host holds %v before Provision", names)
	}
	if _, _, err := c.Provision(client, "inference", "data"); err != nil {
		t.Fatal(err)
	}
	if err := fsapi.WriteFile(c.FS(), "volumes/data/m.tflite", secret); err != nil {
		t.Fatalf("write after Provision: %v", err)
	}
}

// TestLaunchRefusesShieldOnNative: a native container has no enclave
// to attest, so no CAS will key its shield.
func TestLaunchRefusesShieldOnNative(t *testing.T) {
	for _, kind := range []RuntimeKind{RuntimeNativeGlibc, RuntimeNativeMusl} {
		_, err := Launch(Config{
			Kind:          kind,
			Platform:      newPlatform(t, "native"),
			HostFS:        fsapi.NewMem(),
			FSShieldRules: []fsshield.Rule{{Prefix: "models/", Level: fsshield.LevelEncrypted}},
		})
		if err == nil {
			t.Fatalf("%v container with shield rules launched", kind)
		}
	}
}

// casCluster is a CAS whose "inference" session provisions the volume
// "data", and the worker platforms it trusts.
type casCluster struct {
	server     *cas.Server
	casPlat    *sgx.Platform
	workers    int
	registered bool
}

func newCASCluster(t *testing.T) *casCluster {
	t.Helper()
	casPlat := newPlatform(t, "cas-node")
	server, err := cas.NewServer(cas.ServerConfig{Platform: casPlat, StoreFS: fsapi.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return &casCluster{server: server, casPlat: casPlat}
}

// node launches a SconeHW worker over host, with "volumes/data/"
// encrypted, on a platform of its own the CAS trusts, and a client
// bootstrapped to the CAS. The first node registers the session. The
// container is not provisioned.
func (cl *casCluster) node(t *testing.T, host fsapi.FS) (*Container, *cas.Client) {
	t.Helper()
	cl.workers++
	workerPlat := newPlatform(t, fmt.Sprintf("worker-node-%d", cl.workers))
	cl.server.TrustPlatform(workerPlat.Name(), workerPlat.AttestationKey())
	c, err := Launch(Config{
		Kind:     RuntimeSconeHW,
		Platform: workerPlat,
		Image:    sgx.SyntheticImage("worker-app", tflite.BinarySize, 4<<20),
		HostFS:   host,
		FSShieldRules: []fsshield.Rule{
			{Prefix: "volumes/data/", Level: fsshield.LevelEncrypted},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	client, err := cas.NewClient(cas.ClientConfig{
		Enclave:        c.Enclave(),
		Addr:           cl.server.Addr(),
		CASMeasurement: cl.server.Measurement(),
		PlatformKeys:   TrustedKeys(cl.casPlat, workerPlat),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if cl.registered {
		return c, client
	}
	volKey := make([]byte, seccrypto.KeySize)
	for i := range volKey {
		volKey[i] = byte(i)
	}
	session := &cas.Session{
		Name:         "inference",
		OwnerToken:   "tok",
		Measurements: []string{c.Enclave().Measurement().Hex()},
		Secrets:      map[string][]byte{"api-key": []byte("s3cret")},
		Volumes:      map[string][]byte{"data": volKey},
		Services:     []string{"worker-0", "localhost", "127.0.0.1"},
	}
	if err := client.Register(session); err != nil {
		t.Fatal(err)
	}
	cl.registered = true
	return c, client
}

// provisioned is node, provisioned from the session.
func (cl *casCluster) provisioned(t *testing.T, host fsapi.FS) *Container {
	t.Helper()
	c, client := cl.node(t, host)
	if _, _, err := c.Provision(client, "inference", "data"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProvisionFromCAS(t *testing.T) {
	c, client := newCASCluster(t).node(t, fsapi.NewMem())
	prov, timing, err := c.Provision(client, "inference", "data")
	if err != nil {
		t.Fatal(err)
	}
	if string(prov.Secrets["api-key"]) != "s3cret" {
		t.Fatal("secrets missing")
	}
	if timing.Total() <= 0 {
		t.Fatal("no attestation time charged")
	}
	if !c.NetShielded() {
		t.Fatal("network shield not provisioned")
	}
	// The provisioned volume key must protect the volume prefix.
	if err := fsapi.WriteFile(c.FS(), "volumes/data/input.bin", []byte("image")); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(c.FS(), "volumes/data/input.bin")
	if err != nil || string(got) != "image" {
		t.Fatalf("volume round trip: %v", err)
	}
}

func TestProvisionRollbackDetection(t *testing.T) {
	// Files written under a CAS-audited volume must detect rollback
	// across container restarts (the §3.3.2 freshness mechanism).
	c := newCASCluster(t).provisioned(t, fsapi.NewMem())
	host := c.cfg.HostFS

	if err := fsapi.WriteFile(c.FS(), "volumes/data/state.bin", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	oldData, _ := fsapi.ReadFile(host, "volumes/data/state.bin")
	oldMeta, _ := fsapi.ReadFile(host, "volumes/data/state.bin.sfsmeta")
	if err := fsapi.WriteFile(c.FS(), "volumes/data/state.bin", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Adversary rolls back the host files to the old snapshot.
	fsapi.WriteFile(host, "volumes/data/state.bin", oldData)
	fsapi.WriteFile(host, "volumes/data/state.bin.sfsmeta", oldMeta)

	_, err := fsapi.ReadFile(c.FS(), "volumes/data/state.bin")
	if !errors.Is(err, fsshield.ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack via CAS audit", err)
	}
}

func TestContainerAccessors(t *testing.T) {
	c := launchContainer(t, RuntimeSconeHW)
	if c.Kind() != RuntimeSconeHW {
		t.Fatalf("kind = %v", c.Kind())
	}
	if c.Name() == "" {
		t.Fatal("empty runtime name")
	}
	if c.Platform() == nil {
		t.Fatal("no platform")
	}
	if c.Params().EPCSize != c.Platform().Params().EPCSize {
		t.Fatal("params mismatch")
	}
	if c.Clock() != c.Platform().Clock() {
		t.Fatal("clock mismatch")
	}
}

func TestRuntimeKindStrings(t *testing.T) {
	want := map[RuntimeKind]string{
		RuntimeSconeHW:     "HW",
		RuntimeSconeSIM:    "Sim",
		RuntimeGraphene:    "Graphene",
		RuntimeNativeGlibc: "Native glibc",
		RuntimeNativeMusl:  "Native musl",
	}
	for kind, label := range want {
		if got := kind.String(); got != label {
			t.Fatalf("%d.String() = %q, want %q", kind, got, label)
		}
	}
	if got := RuntimeKind(99).String(); got == "" {
		t.Fatal("unknown kind has empty label")
	}
	shielded := map[RuntimeKind]bool{
		RuntimeSconeHW: true, RuntimeSconeSIM: true, RuntimeGraphene: true,
		RuntimeNativeGlibc: false, RuntimeNativeMusl: false,
	}
	for kind, want := range shielded {
		if kind.Shielded() != want {
			t.Fatalf("%v.Shielded() = %v", kind, kind.Shielded())
		}
	}
}
