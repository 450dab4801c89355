// The router's placement manifest and dial-time handshake.
//
// The dist package's workers refuse to start against a parameter server
// whose variable manifest differs from what they expect — mismatches
// fail fast at construction instead of corrupting a training run. The
// router tier applies the same idiom to serving, twice:
//
//   - router → node: at startup the router asks every gateway node for
//     its registered models and refuses to come up if a node does not
//     serve what the placement declares for it.
//   - client → router: at dial time the client sends a hello naming the
//     models and graphs it intends to call; the router answers with its
//     placement manifest, canonically encoded and signed with the
//     router's manifest key. The client verifies the signature and the
//     expectations before the first request — a client configured for a
//     model the fleet does not place fails at dial, not mid-traffic.
//
// The manifest is signed (not merely sent) because the TLS identity the
// network shield verifies belongs to the router's CAS session, while the
// manifest key can be pinned independently by clients that want the
// placement itself — which nodes host which models — to be attributable
// even if the router endpoint is re-provisioned.
package router

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/wire"
)

const (
	// helloMagic is the first byte of every handshake frame. It is
	// deliberately distinct from the serving protocol's version byte, so
	// a hello sent to a plain gateway (or a serving request sent to a
	// router before its handshake) is rejected as a bad header instead
	// of being misparsed.
	helloMagic = 0x52 // 'R'
	// handshakeVersion is the handshake protocol version.
	handshakeVersion = 1
	// maxHandshakeNames bounds the name lists in handshake frames.
	maxHandshakeNames = 1 << 10
)

// NodeInfo is one gateway node as published in the manifest.
type NodeInfo struct {
	Name   string
	Addr   string
	Models []string // sorted
}

// Manifest is the router's signed model→node placement: which gateway
// nodes exist, which models each serves, and which inference graphs the
// router compiles on top of them.
type Manifest struct {
	Nodes  []NodeInfo
	Graphs []string // sorted
}

// Models returns the sorted union of model names placed on any node.
func (m Manifest) Models() []string {
	seen := make(map[string]bool)
	for _, n := range m.Nodes {
		for _, model := range n.Models {
			seen[model] = true
		}
	}
	models := make([]string, 0, len(seen))
	for model := range seen {
		models = append(models, model)
	}
	sort.Strings(models)
	return models
}

// HasModel reports whether any node places model.
func (m Manifest) HasModel(model string) bool {
	for _, n := range m.Nodes {
		for _, placed := range n.Models {
			if placed == model {
				return true
			}
		}
	}
	return false
}

// HasGraph reports whether the router compiles graph.
func (m Manifest) HasGraph(graph string) bool {
	for _, g := range m.Graphs {
		if g == graph {
			return true
		}
	}
	return false
}

// appendString appends a u16-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// readString consumes a u16-length-prefixed string.
func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("router: truncated string header")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("router: truncated string body")
	}
	return string(b[:n]), b[n:], nil
}

// appendStrings appends a u16 count followed by the strings.
func appendStrings(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// readStrings consumes a u16-counted string list.
func readStrings(b []byte) ([]string, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("router: truncated list header")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > maxHandshakeNames {
		return nil, nil, fmt.Errorf("router: list of %d names exceeds the %d bound", n, maxHandshakeNames)
	}
	var (
		ss  []string
		s   string
		err error
	)
	for i := 0; i < n; i++ {
		if s, b, err = readString(b); err != nil {
			return nil, nil, err
		}
		ss = append(ss, s)
	}
	return ss, b, nil
}

// encode serializes the manifest canonically: nodes in placement order,
// each node's models sorted, graph names sorted — the byte string the
// signature covers, identical for identical placements.
func (m Manifest) encode() []byte {
	b := []byte{helloMagic, handshakeVersion}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		b = appendString(b, n.Name)
		b = appendString(b, n.Addr)
		models := append([]string(nil), n.Models...)
		sort.Strings(models)
		b = appendStrings(b, models)
	}
	graphs := append([]string(nil), m.Graphs...)
	sort.Strings(graphs)
	return appendStrings(b, graphs)
}

// decodeManifest parses a canonically encoded manifest.
func decodeManifest(b []byte) (Manifest, error) {
	if len(b) < 4 || b[0] != helloMagic || b[1] != handshakeVersion {
		return Manifest{}, fmt.Errorf("router: bad manifest header")
	}
	nNodes := int(binary.LittleEndian.Uint16(b[2:]))
	b = b[4:]
	if nNodes > maxHandshakeNames {
		return Manifest{}, fmt.Errorf("router: manifest with %d nodes exceeds the %d bound", nNodes, maxHandshakeNames)
	}
	var (
		m   Manifest
		err error
	)
	for i := 0; i < nNodes; i++ {
		var n NodeInfo
		if n.Name, b, err = readString(b); err != nil {
			return Manifest{}, err
		}
		if n.Addr, b, err = readString(b); err != nil {
			return Manifest{}, err
		}
		if n.Models, b, err = readStrings(b); err != nil {
			return Manifest{}, err
		}
		m.Nodes = append(m.Nodes, n)
	}
	if m.Graphs, b, err = readStrings(b); err != nil {
		return Manifest{}, err
	}
	if len(b) != 0 {
		return Manifest{}, fmt.Errorf("router: %d trailing manifest bytes", len(b))
	}
	return m, nil
}

// hello is the client's dial-time expectation frame.
type hello struct {
	Models []string // models the client intends to call
	Graphs []string // graphs the client intends to call
}

// writeHello sends the client hello.
func writeHello(w io.Writer, h hello) error {
	if len(h.Models) > maxHandshakeNames || len(h.Graphs) > maxHandshakeNames {
		return fmt.Errorf("router: hello names %d models and %d graphs; bound is %d",
			len(h.Models), len(h.Graphs), maxHandshakeNames)
	}
	b := []byte{helloMagic, handshakeVersion}
	b = appendStrings(b, h.Models)
	b = appendStrings(b, h.Graphs)
	return wire.WriteFrame(w, b)
}

// readHello parses the client hello.
func readHello(r io.Reader) (hello, error) {
	b, err := wire.ReadFrame(r)
	if err != nil {
		return hello{}, err
	}
	if len(b) < 2 || b[0] != helloMagic || b[1] != handshakeVersion {
		return hello{}, fmt.Errorf("router: bad hello header")
	}
	var h hello
	if h.Models, b, err = readStrings(b[2:]); err != nil {
		return hello{}, err
	}
	if h.Graphs, _, err = readStrings(b); err != nil {
		return hello{}, err
	}
	return h, nil
}

// writeManifestReply answers a hello: on acceptance the signed manifest,
// on rejection the refusal reason.
func writeManifestReply(w io.Writer, key *seccrypto.SigningKey, m Manifest, refusal string) error {
	b := []byte{helloMagic, handshakeVersion}
	if refusal != "" {
		b = append(b, 0)
		b = append(b, refusal...)
		return wire.WriteFrame(w, b)
	}
	raw := m.encode()
	sig, err := key.Sign(raw)
	if err != nil {
		return fmt.Errorf("router: sign manifest: %w", err)
	}
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(sig)))
	b = append(b, sig...)
	b = append(b, raw...)
	return wire.WriteFrame(w, b)
}

// readManifestReply parses the router's handshake answer, returning the
// manifest, its canonical bytes and the signature over them.
func readManifestReply(r io.Reader) (Manifest, []byte, []byte, error) {
	b, err := wire.ReadFrame(r)
	if err != nil {
		return Manifest{}, nil, nil, err
	}
	if len(b) < 3 || b[0] != helloMagic || b[1] != handshakeVersion {
		return Manifest{}, nil, nil, fmt.Errorf("router: bad manifest reply header")
	}
	if b[2] == 0 {
		return Manifest{}, nil, nil, fmt.Errorf("%w: %s", ErrManifestMismatch, string(b[3:]))
	}
	b = b[3:]
	if len(b) < 2 {
		return Manifest{}, nil, nil, fmt.Errorf("router: truncated manifest signature")
	}
	sigLen := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < sigLen {
		return Manifest{}, nil, nil, fmt.Errorf("router: truncated manifest signature body")
	}
	sig, raw := b[:sigLen], b[sigLen:]
	m, err := decodeManifest(raw)
	if err != nil {
		return Manifest{}, nil, nil, err
	}
	return m, bytes.Clone(raw), bytes.Clone(sig), nil
}
