// The router client: dials a router, runs the manifest handshake —
// declaring the models and graphs it intends to call and verifying the
// signed placement the router answers with — and then speaks the plain
// serving protocol over the same connection.
package router

import (
	"crypto/ecdsa"
	"fmt"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/serving"
)

// ClientConfig tunes a router client.
type ClientConfig struct {
	// VerifyKey, when set, pins the router's manifest key: the handshake
	// fails unless the placement manifest verifies against it. Leave nil
	// to accept the manifest on the transport's authentication alone
	// (the network shield's TLS, when provisioned).
	VerifyKey *ecdsa.PublicKey
	// ExpectModels and ExpectGraphs are the names this client intends to
	// call. The handshake fails fast — ErrManifestMismatch — if the
	// fleet does not place every one of them, so misconfiguration
	// surfaces at dial time instead of mid-traffic.
	ExpectModels []string
	ExpectGraphs []string
}

// Client is a connection to a router, post-handshake. It speaks the
// plain serving protocol, so its requests may name any placed model or
// compiled graph: a graph answers as version 1, InferTimed reports the
// per-step sum of the fleet's service time, and Models lists the placed
// models and the graphs together, sorted.
type Client struct {
	*serving.Client
	manifest Manifest
}

// DialClient connects to a router (through the container's shielded
// dial when provisioned), runs the manifest handshake and returns a
// client ready for inference. The returned client's requests may name
// any placed model or compiled graph.
func DialClient(c *core.Container, addr, serverName string, cfg ClientConfig) (*Client, error) {
	conn, err := c.Dial("tcp", addr, serverName)
	if err != nil {
		return nil, err
	}
	if err := writeHello(conn, hello{Models: cfg.ExpectModels, Graphs: cfg.ExpectGraphs}); err != nil {
		conn.Close()
		return nil, err
	}
	m, raw, sig, err := readManifestReply(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if cfg.VerifyKey != nil && !seccrypto.Verify(cfg.VerifyKey, raw, sig) {
		conn.Close()
		return nil, fmt.Errorf("%w: manifest signature does not verify against the pinned key", ErrManifestMismatch)
	}
	// The router already refused unsatisfiable expectations; re-check
	// against the verified manifest so a tampering router cannot wave a
	// client through with a placement that lacks what it asked for.
	for _, model := range cfg.ExpectModels {
		if !m.HasModel(model) {
			conn.Close()
			return nil, fmt.Errorf("%w: manifest places no model %q", ErrManifestMismatch, model)
		}
	}
	for _, graph := range cfg.ExpectGraphs {
		if !m.HasGraph(graph) {
			conn.Close()
			return nil, fmt.Errorf("%w: manifest has no graph %q", ErrManifestMismatch, graph)
		}
	}
	return &Client{Client: serving.NewClientConn(conn, c.Clock()), manifest: m}, nil
}

// Manifest returns the verified placement manifest from the handshake.
func (rc *Client) Manifest() Manifest { return rc.manifest }
