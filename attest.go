package securetf

import (
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/pem"
	"fmt"

	"github.com/securetf/securetf/internal/cas"
	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/sgx"
)

// CAS is a running Configuration and Attestation Service: the secureTF
// component that attests enclaves locally (no WAN round trip to Intel)
// and provisions secrets, volume keys and TLS identities. The CAS itself
// runs inside an enclave with zero operator-controllable configuration
// and a rollback-protected encrypted store.
type CAS = cas.Server

// CASClient attests a local enclave to a CAS and receives provisions.
type CASClient = cas.Client

// Session is a named CAS configuration: the policy deciding which
// enclave measurements may attest to it, and the material provisioned on
// success (secrets, file-system shield volume keys, TLS service names).
type Session = cas.Session

// Provision is the material an attested container receives.
type Provision = cas.Provision

// AttestTiming breaks an attestation round into the four legs of the
// paper's Figure 4: initialization, send quote, wait confirmation,
// receive keys.
type AttestTiming = cas.AttestTiming

// TrustedKeys builds the platform trust store (platform name → platform
// attestation public key) CAS servers and clients verify quotes against.
func TrustedKeys(platforms ...*Platform) map[string]*ecdsa.PublicKey {
	return core.TrustedKeys(platforms...)
}

// StartCAS starts a CAS on its own enclave on platform, persisting its
// encrypted store to storeFS and trusting quotes from the given
// platforms (its own platform is always trusted).
func StartCAS(platform *Platform, storeFS FS, trusted ...*Platform) (*CAS, error) {
	server, err := cas.NewServer(cas.ServerConfig{
		Platform:         platform,
		StoreFS:          storeFS,
		TrustedPlatforms: core.TrustedKeys(trusted...),
	})
	if err != nil {
		return nil, fmt.Errorf("securetf: start CAS: %w", err)
	}
	return server, nil
}

// StartCASWithTrust starts a CAS like StartCAS but with an explicit
// trust store — the form separate processes use after exchanging
// platform keys with MarshalPlatformKey / ParsePlatformKeys.
func StartCASWithTrust(platform *Platform, storeFS FS, listenAddr string, trusted map[string]*ecdsa.PublicKey) (*CAS, error) {
	server, err := cas.NewServer(cas.ServerConfig{
		Platform:         platform,
		StoreFS:          storeFS,
		ListenAddr:       listenAddr,
		TrustedPlatforms: trusted,
	})
	if err != nil {
		return nil, fmt.Errorf("securetf: start CAS: %w", err)
	}
	return server, nil
}

// NewCASClientAt connects a container's enclave to a CAS reached only by
// address — the cross-process form of NewCASClient. measurement is the
// expected CAS enclave measurement (hex) and trusted the platform-key
// store, which must cover both the CAS platform and the container's own.
func NewCASClientAt(c *Container, addr, measurement string, trusted map[string]*ecdsa.PublicKey) (*CASClient, error) {
	enclave := c.Enclave()
	if enclave == nil {
		return nil, fmt.Errorf("securetf: container kind %v has no enclave to attest", c.Kind())
	}
	m, err := ParseMeasurement(measurement)
	if err != nil {
		return nil, err
	}
	return bootstrapCAS(enclave, addr, m, trusted)
}

// bootstrapCAS makes enclave a client of the CAS at addr and establishes
// its trust in that CAS: measurement is the CAS enclave's, and trusted
// must cover the CAS's platform and enclave's own.
func bootstrapCAS(enclave *sgx.Enclave, addr string, measurement Measurement, trusted map[string]*ecdsa.PublicKey) (*CASClient, error) {
	client, err := cas.NewClient(cas.ClientConfig{
		Enclave:        enclave,
		Addr:           addr,
		CASMeasurement: measurement,
		PlatformKeys:   trusted,
	})
	if err != nil {
		return nil, fmt.Errorf("securetf: new CAS client: %w", err)
	}
	if err := client.Bootstrap(); err != nil {
		return nil, fmt.Errorf("securetf: CAS bootstrap: %w", err)
	}
	return client, nil
}

// Measurement is an enclave measurement (MRENCLAVE).
type Measurement = sgx.Measurement

// ParseMeasurement parses a hex measurement string.
func ParseMeasurement(s string) (Measurement, error) { return sgx.ParseMeasurement(s) }

// platformKeyPEMType is the PEM block type of exported platform keys.
const platformKeyPEMType = "SECURETF PLATFORM KEY"

// MarshalPlatformKey exports a platform's attestation public key as a
// named PEM block, so separate processes (e.g. securetf-worker's cas and
// serve commands) can exchange trust out of band — the role DCAP root
// certificates play on real hardware.
func MarshalPlatformKey(p *Platform) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(p.AttestationKey())
	if err != nil {
		return nil, fmt.Errorf("securetf: marshal platform key: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{
		Type:    platformKeyPEMType,
		Headers: map[string]string{"platform": p.Name()},
		Bytes:   der,
	}), nil
}

// ParsePlatformKeys parses every platform-key PEM block in data into a
// trust store (platform name → attestation public key). Unrelated PEM
// blocks are skipped.
func ParsePlatformKeys(data []byte) (map[string]*ecdsa.PublicKey, error) {
	keys := make(map[string]*ecdsa.PublicKey)
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		if block.Type != platformKeyPEMType {
			continue
		}
		name := block.Headers["platform"]
		if name == "" {
			return nil, fmt.Errorf("securetf: platform key block without platform header")
		}
		pub, err := x509.ParsePKIXPublicKey(block.Bytes)
		if err != nil {
			return nil, fmt.Errorf("securetf: parse platform key %q: %w", name, err)
		}
		ecKey, ok := pub.(*ecdsa.PublicKey)
		if !ok {
			return nil, fmt.Errorf("securetf: platform key %q is not ECDSA", name)
		}
		keys[name] = ecKey
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("securetf: no platform key blocks found")
	}
	return keys, nil
}

// NewCASClient connects a container's enclave to a CAS for attestation.
// The platforms are the trust store for quote verification; it must
// include both the CAS's platform and the container's own. The client
// verifies the CAS quote against the server's measurement before
// trusting it with anything (paper §3.1 step 1).
func NewCASClient(c *Container, server *CAS, platforms ...*Platform) (*CASClient, error) {
	enclave := c.Enclave()
	if enclave == nil {
		return nil, fmt.Errorf("securetf: container kind %v has no enclave to attest", c.Kind())
	}
	return bootstrapCAS(enclave, server.Addr(), server.Measurement(), core.TrustedKeys(platforms...))
}
