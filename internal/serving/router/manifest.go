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

// Handshake frames carry u16-prefixed strings (wire.Str16) in
// u16-counted lists; a name is at least its two-byte prefix.

func encodeNames(w *wire.Writer, names []string) {
	w.U16(uint16(len(names)))
	for _, s := range names {
		w.Str16(s)
	}
}

// decodeNames reads a list of at most maxHandshakeNames names.
func decodeNames(r *wire.Reader) ([]string, error) {
	n := r.Count16(2)
	if n > maxHandshakeNames {
		return nil, fmt.Errorf("router: list of %d names exceeds the %d bound", n, maxHandshakeNames)
	}
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, r.Str16())
	}
	return names, nil
}

// handshakeHeader starts a handshake frame.
func handshakeHeader() wire.Writer {
	return wire.Writer{Buf: []byte{helloMagic, handshakeVersion}}
}

// openHandshake starts reading a handshake frame, reporting
// whether it opens with the magic and version.
func openHandshake(b []byte) (*wire.Reader, bool) {
	r := wire.NewReader(b)
	return r, r.U8() == helloMagic && r.U8() == handshakeVersion
}

// encode serializes the manifest canonically: nodes in placement order,
// each node's models sorted, graph names sorted — the byte string the
// signature covers, identical for identical placements.
func (m Manifest) encode() []byte {
	w := handshakeHeader()
	w.U16(uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		w.Str16(n.Name)
		w.Str16(n.Addr)
		encodeNames(&w, sortedCopy(n.Models))
	}
	encodeNames(&w, sortedCopy(m.Graphs))
	return w.Buf
}

func sortedCopy(names []string) []string {
	names = append([]string(nil), names...)
	sort.Strings(names)
	return names
}

// decodeManifest parses a canonically encoded manifest; one whose name
// lists are not sorted is not canonical and is refused.
func decodeManifest(b []byte) (Manifest, error) {
	r, ok := openHandshake(b)
	if !ok {
		return Manifest{}, fmt.Errorf("router: bad manifest header")
	}
	// A node is at least its two names' prefixes and its list's count.
	nNodes := r.Count16(6)
	if nNodes > maxHandshakeNames {
		return Manifest{}, fmt.Errorf("router: manifest with %d nodes exceeds the %d bound", nNodes, maxHandshakeNames)
	}
	var (
		m   Manifest
		err error
	)
	for i := 0; i < nNodes; i++ {
		n := NodeInfo{Name: r.Str16(), Addr: r.Str16()}
		if n.Models, err = decodeNames(r); err != nil {
			return Manifest{}, err
		}
		if !sort.StringsAreSorted(n.Models) {
			return Manifest{}, fmt.Errorf("router: manifest node %q lists its models unsorted", n.Name)
		}
		m.Nodes = append(m.Nodes, n)
	}
	if m.Graphs, err = decodeNames(r); err != nil {
		return Manifest{}, err
	}
	if err := r.Done(); err != nil {
		return Manifest{}, fmt.Errorf("router: manifest: %w", err)
	}
	if !sort.StringsAreSorted(m.Graphs) {
		return Manifest{}, fmt.Errorf("router: manifest lists its graphs unsorted")
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
	b := handshakeHeader()
	encodeNames(&b, h.Models)
	encodeNames(&b, h.Graphs)
	return wire.WriteFrame(w, b.Buf)
}

// readHello parses the client hello.
func readHello(r io.Reader) (hello, error) {
	b, err := wire.ReadFrame(r)
	if err != nil {
		return hello{}, err
	}
	p, ok := openHandshake(b)
	if !ok {
		return hello{}, fmt.Errorf("router: bad hello header")
	}
	var h hello
	if h.Models, err = decodeNames(p); err != nil {
		return hello{}, err
	}
	if h.Graphs, err = decodeNames(p); err != nil {
		return hello{}, err
	}
	if err := p.Done(); err != nil {
		return hello{}, fmt.Errorf("router: hello: %w", err)
	}
	return h, nil
}

// writeManifestReply answers a hello: on acceptance the signed manifest,
// on rejection the refusal reason.
func writeManifestReply(w io.Writer, key *seccrypto.SigningKey, m Manifest, refusal string) error {
	b := handshakeHeader()
	if refusal != "" {
		b.U8(0)
		b.Buf = append(b.Buf, refusal...)
		return wire.WriteFrame(w, b.Buf)
	}
	raw := m.encode()
	sig, err := key.Sign(raw)
	if err != nil {
		return fmt.Errorf("router: sign manifest: %w", err)
	}
	b.U8(1)
	b.U16(uint16(len(sig)))
	b.Buf = append(append(b.Buf, sig...), raw...)
	return wire.WriteFrame(w, b.Buf)
}

// readManifestReply parses the router's handshake answer, returning the
// manifest, its canonical bytes and the signature over them.
func readManifestReply(r io.Reader) (Manifest, []byte, []byte, error) {
	b, err := wire.ReadFrame(r)
	if err != nil {
		return Manifest{}, nil, nil, err
	}
	p, ok := openHandshake(b)
	accepted := p.U8()
	if !ok || p.Err() != nil || accepted > 1 {
		return Manifest{}, nil, nil, fmt.Errorf("router: bad manifest reply header")
	}
	if accepted == 0 {
		return Manifest{}, nil, nil, fmt.Errorf("%w: %s", ErrManifestMismatch, p.Next(p.Remaining()))
	}
	sig := p.Next(int(p.U16()))
	raw := p.Next(p.Remaining())
	if p.Err() != nil {
		return Manifest{}, nil, nil, fmt.Errorf("router: truncated manifest signature")
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return Manifest{}, nil, nil, err
	}
	return m, raw, sig, nil
}
