package federated

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"

	"github.com/securetf/securetf/internal/federated/ring"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
)

// CoordinatorConfig configures a federated Coordinator.
type CoordinatorConfig struct {
	// Listener accepts client connections. Required; route it through
	// the aggregator container so the network shield's TLS applies.
	Listener net.Listener
	// Vars seeds the global model. Required, Float32 tensors; deep
	// copied at construction.
	Vars map[string]*tf.Tensor
	// Clients is the client population size N. Client ids are
	// [0, N). Required, ≥ 1.
	Clients int
	// SampleFraction is the fraction of the population sampled into
	// each round's cohort, in (0, 1]. Zero means 1 (sample everyone).
	SampleFraction float64
	// Quorum is the number of accepted uploads that completes a round,
	// in [1, cohort size]. Required. Under int8 it is additionally
	// bounded so the 16-bit ring sum cannot overflow.
	Quorum int
	// Rounds is the number of FedAvg rounds to run. Required, ≥ 1.
	Rounds int
	// Codec is the uplink quantizer every client must run.
	Codec dist.Compression
	// Unmasked disables secure aggregation: clients upload bare
	// quantized updates and dropout needs no seed reveals. The ablation
	// arm of the sum-only property test, not a deployment mode.
	Unmasked bool
	// Seed drives the per-round client sampling and top-k patterns.
	Seed int64
	// Meter charges the coordinator's virtual clock for its frames. The
	// zero value is a fresh clock at sgx.DefaultParams.
	Meter sgx.Meter
	// Tap, when set, observes every accepted upload payload before it
	// is accumulated: one call per (client, variable) with the raw wire
	// blob, which is the received frame's (a buffer of the
	// coordinator's list) and valid only for the call. The sum-only property test uses it to pin that individual
	// payloads are mask-blinded; the coordinator itself never inspects
	// payloads beyond accumulation either way.
	Tap func(round uint64, client uint32, name string, payload []byte)
}

// Stats is a snapshot of coordinator counters.
type Stats struct {
	// Rounds is the number of committed rounds so far.
	Rounds int
	// Accepted counts accepted uploads across all rounds.
	Accepted int
	// Refusals counts uploads refused with the retryable Closed flag —
	// stragglers that missed their round's quorum.
	Refusals int
	// Reveals counts accepted seed-reveal messages.
	Reveals int
	// Handshakes counts completed client handshakes (rejoins included).
	Handshakes int
	// UplinkBytes totals the payload bytes of accepted uploads — the
	// quantity the uplink codec exists to shrink.
	UplinkBytes int64
}

// Coordinator runs FedAvg rounds with quorum-based straggler dropout
// and pairwise-masked secure aggregation over a population of simulated
// clients. Clients drive every exchange; the coordinator only ever
// answers, so its serve loop never blocks on a peer.
type Coordinator struct {
	cfg     CoordinatorConfig
	codec   ringCodec // cfg.Codec over the integer ring
	names   []string
	sampled int

	srv *wire.Server
	// frames is the one list of frame buffers every client connection
	// borrows from: the coordinator keeps what its exchanges in flight
	// at once need, not two frames a connection, and none larger than a
	// well-formed exchange carries (frameCap).
	frames wire.Frames

	mu   sync.Mutex
	vars map[string]*tf.Tensor // working globals, mutated only in finalize

	// Per-round state, rebuilt by openRound. uploads admits the round's
	// uploads: its members are the cohort, its Need the quorum, and once
	// closed the round collects seed reveals (or training is done).
	// snapshot, cohort and the owed lists are immutable once published
	// (replies reference them outside mu).
	round       uint64
	uploads     dist.Round
	patternSeed uint64
	cohort      []uint32
	graph       pairingGraph // over cohort
	snapshot    map[string]*tf.Tensor
	coords      [][]int             // per variable, parallel to names; nil = dense
	acc         [][]byte            // per variable: the packed ring sum of the accepted payloads
	owed        map[uint32][]uint32 // survivor → its dead neighbours, ascending
	revealed    map[uint32]bool
	unmask      []maskStream // the revealed streams that cancel the dead's masks

	stats Stats
	done  bool
}

// NewCoordinator validates cfg, deep-copies the seed variables and
// starts accepting client connections. Training ends after cfg.Rounds
// committed rounds.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Listener == nil {
		return nil, errors.New("federated: CoordinatorConfig.Listener is required")
	}
	if len(cfg.Vars) == 0 {
		return nil, errors.New("federated: CoordinatorConfig.Vars must be non-empty")
	}
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("federated: CoordinatorConfig.Clients must be ≥ 1, got %d", cfg.Clients)
	}
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = 1
	}
	if cfg.SampleFraction <= 0 || cfg.SampleFraction > 1 {
		return nil, fmt.Errorf("federated: sample fraction %v outside (0, 1]", cfg.SampleFraction)
	}
	sampled := sampleSize(cfg.Clients, cfg.SampleFraction)
	if cfg.Quorum < 1 || cfg.Quorum > sampled {
		return nil, fmt.Errorf("federated: quorum %d outside [1, %d] (cohort of %d sampled from %d clients)",
			cfg.Quorum, sampled, sampled, cfg.Clients)
	}
	if cfg.Quorum < 2 && sampled > 1 && !cfg.Unmasked {
		// A lone survivor's reveal would strip its whole mask, which
		// its client refuses.
		return nil, fmt.Errorf("federated: quorum %d under masking needs to be ≥ 2 for a cohort of %d", cfg.Quorum, sampled)
	}
	var err error
	if cfg.Codec, err = cfg.Codec.Canonical(); err != nil {
		return nil, err
	}
	if cfg.Codec.Kind == dist.CompressInt8 && cfg.Quorum > maxInt8Quorum {
		return nil, fmt.Errorf("federated: quorum %d overflows the int8 ring sum (max %d)", cfg.Quorum, maxInt8Quorum)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("federated: CoordinatorConfig.Rounds must be ≥ 1, got %d", cfg.Rounds)
	}
	if cfg.Meter.Clock() == nil {
		cfg.Meter = sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	}

	c := &Coordinator{
		cfg:     cfg,
		codec:   ringCodec{cfg.Codec},
		sampled: sampled,
		vars:    make(map[string]*tf.Tensor, len(cfg.Vars)),
		uploads: dist.NewRound(cfg.Quorum),
	}
	for name, t := range cfg.Vars {
		if t == nil || t.DType() != tf.Float32 {
			return nil, fmt.Errorf("federated: variable %q must be a Float32 tensor", name)
		}
		c.names = append(c.names, name)
		c.vars[name] = t.Clone()
	}
	sort.Strings(c.names)
	c.openRoundLocked()
	c.frames.Max = c.frameCap()
	c.srv = wire.Serve(cfg.Listener, c.serve)
	return c, nil
}

// frameCap is the largest frame a well-formed exchange of this job
// carries, from the manifest's variable sizes and the codec's blob size:
// the largest of a round's assignment to a whole cohort, an upload of
// every variable, and a reveal of a seed for every cohort member; plus
// a kilobyte for the text of an error.
func (c *Coordinator) frameCap() int {
	width, largest := c.codec.width(), 0
	for _, acc := range c.acc {
		largest = max(largest, len(acc))
	}
	blank := make([]byte, max(c.codec.blobSize(largest/width), seccrypto.KeySize))
	blobs := make(map[string][]byte, len(c.names))
	for i, name := range c.names {
		blobs[name] = blank[:c.codec.blobSize(len(c.acc[i])/width)]
	}
	seeds := make(map[string][]byte, c.sampled)
	digits := len(strconv.Itoa(c.cfg.Clients - 1))
	for i := range c.sampled {
		seeds[fmt.Sprintf("%0*d", digits, i)] = blank[:seccrypto.KeySize]
	}
	return 1<<10 + max(
		dist.FrameLen(&dist.Message{Kind: dist.MsgFedRound, Clients: c.cohort, Vars: c.vars}),
		dist.FrameLen(&dist.Message{Kind: dist.MsgFedPush, Grads: blobs}),
		dist.FrameLen(&dist.Message{Kind: dist.MsgFedSeeds, Grads: seeds}),
	)
}

// sampleSize is the cohort size for a population under a sample
// fraction: ⌈fraction·population⌉, clamped to the population.
func sampleSize(population int, fraction float64) int {
	k := int(float64(population) * fraction)
	if float64(k) < float64(population)*fraction {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > population {
		k = population
	}
	return k
}

// openRoundLocked samples the next round's cohort and resets the
// accumulator. The published snapshot, cohort and pattern are immutable
// for the round's lifetime, so assignment replies can reference them
// after mu is released.
func (c *Coordinator) openRoundLocked() {
	c.cohort = roundCohort(c.cfg.Seed, c.round, c.cfg.Clients, c.sampled)
	clear(c.uploads.Members)
	clear(c.uploads.Pushed)
	for _, id := range c.cohort {
		c.uploads.Members[id] = true
	}
	c.patternSeed = roundPatternSeed(c.cfg.Seed, c.round)
	c.graph = newPairingGraph(len(c.cohort), c.patternSeed, maskDegree(len(c.cohort), c.cfg.Quorum))
	c.snapshot = dist.CloneVars(c.vars)
	c.coords = make([][]int, len(c.names))
	c.acc = make([][]byte, len(c.names))
	for i, name := range c.names {
		n := len(c.vars[name].Floats())
		c.coords[i] = c.codec.coords(c.patternSeed, name, n)
		c.acc[i] = make([]byte, wordCount(c.coords[i], n)*c.codec.width())
	}
	c.owed = nil
	c.revealed = nil
	c.unmask = nil
}

// Vars returns a snapshot of the current global variables.
func (c *Coordinator) Vars() map[string]*tf.Tensor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return dist.CloneVars(c.vars)
}

// Stats returns a snapshot of the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close stops the coordinator: the listener and all client connections
// are closed.
func (c *Coordinator) Close() error { return c.srv.Close() }

// serve runs one client's connection through a link that borrows its
// frame buffers from the coordinator's list. The connection speaks for the one client id its
// hello carried: a poll, push or reveal before a successful hello, or in
// another client's name, is refused and changes nothing.
func (c *Coordinator) serve(conn net.Conn) {
	l := dist.NewLinkFrom(&c.frames, conn, nil)
	var id uint32
	greeted := false
	for {
		msg, err := l.Receive(c.cfg.Meter)
		if err != nil {
			return
		}
		resp := dist.Refusal("federated", "client", greeted, id, msg)
		switch kind := msg.Kind; {
		case kind != dist.MsgHello && kind != dist.MsgFedPoll && kind != dist.MsgFedPush && kind != dist.MsgFedSeeds:
			resp = &dist.Message{Kind: dist.MsgAck, Err: fmt.Sprintf("federated: unknown message kind %d", kind)}
		case resp != nil:
		case kind == dist.MsgHello:
			resp = c.handshake(msg)
			id, greeted = msg.Worker, resp.OK
		case kind == dist.MsgFedPoll:
			resp = c.poll(msg)
		case kind == dist.MsgFedPush:
			resp = c.push(msg)
		default:
			resp = c.seeds(msg)
		}
		if _, err := l.Send(c.cfg.Meter, resp); err != nil {
			return
		}
	}
}

// maskedPolicy is the Policy wire byte of the federated handshake: 1
// when pairwise masking is on, 0 for the unmasked ablation. A client
// and coordinator disagreeing on it must fail fast — an unmasked
// client in a masked cohort would upload its bare update.
func maskedPolicy(unmasked bool) uint8 {
	if unmasked {
		return 0
	}
	return 1
}

// handshake answers a client's hello with the coordinator's manifest.
// The client states the population size, codec and masking mode it was
// configured with; any mismatch is reported explicitly so a
// misconfigured client fails at construction instead of poisoning a
// round (or uploading unmasked).
func (c *Coordinator) handshake(msg *dist.Message) *dist.Message {
	kind, fraction := c.cfg.Codec.Wire()
	resp := &dist.Message{
		Kind:   dist.MsgManifest,
		Shards: uint32(c.cfg.Clients),
		Policy: maskedPolicy(c.cfg.Unmasked),
		Codec:  kind,
		TopK:   fraction,
		Names:  c.names,
		OK:     true,
	}
	clientCodec := dist.CompressionFromWire(msg.Codec, msg.TopK)
	switch {
	case int(msg.Worker) >= c.cfg.Clients:
		resp.OK = false
		resp.Err = fmt.Sprintf("federated: client id %d outside the population of %d", msg.Worker, c.cfg.Clients)
	case int(msg.Shards) != c.cfg.Clients:
		resp.OK = false
		resp.Err = fmt.Sprintf("federated: client %d expects a population of %d, this job has %d",
			msg.Worker, msg.Shards, c.cfg.Clients)
	case clientCodec != c.cfg.Codec:
		resp.OK = false
		resp.Err = fmt.Sprintf("federated: client %d uploads with codec %v, this job runs %v",
			msg.Worker, clientCodec, c.cfg.Codec)
	case msg.Policy != maskedPolicy(c.cfg.Unmasked):
		resp.OK = false
		resp.Err = fmt.Sprintf("federated: client %d masking mode %d, this job runs %d",
			msg.Worker, msg.Policy, maskedPolicy(c.cfg.Unmasked))
	}
	if resp.OK {
		c.mu.Lock()
		c.stats.Handshakes++
		c.mu.Unlock()
	}
	return resp
}

// poll answers a client's work request: a round assignment (with the
// pairing graph's degree in Step) if the client is sampled and has not
// uploaded yet, an unmask request naming its dead neighbours if the
// round is closing and the client owes seed reveals, a wait otherwise,
// and a terminal refusal once training is complete.
func (c *Coordinator) poll(msg *dist.Message) *dist.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := msg.Worker
	switch {
	case c.done:
		return &dist.Message{Kind: dist.MsgAck, Err: trainingCompleteErr}
	case c.uploads.Closed():
		if dead, ok := c.owed[id]; ok && !c.revealed[id] {
			return &dist.Message{Kind: dist.MsgFedUnmask, OK: true, Round: c.round, Clients: dead}
		}
		return &dist.Message{Kind: dist.MsgFedRound, OK: true, Closed: true}
	case c.uploads.Members[id] && !c.uploads.Pushed[id]:
		return &dist.Message{
			Kind:    dist.MsgFedRound,
			OK:      true,
			Round:   c.round,
			Step:    uint64(c.graph.d),
			Seed:    c.patternSeed,
			Clients: c.cohort,
			Vars:    c.snapshot,
		}
	default:
		return &dist.Message{Kind: dist.MsgFedRound, OK: true, Closed: true}
	}
}

// push validates and accumulates one masked upload, closing the round
// when the quorum fills. A push for a closed (or closing) round is
// refused with the retryable Closed flag — and must be: after the seed
// reveals, accepting it would let the coordinator strip its masks.
// Structural violations — a non-cohort sender, a duplicate, a
// malformed payload — are hard errors.
func (c *Coordinator) push(msg *dist.Message) *dist.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := msg.Worker
	switch err := c.uploads.Admit(id, msg.Round, c.round); {
	case errors.Is(err, dist.ErrLate):
		c.stats.Refusals++
		return &dist.Message{
			Kind: dist.MsgAck, Closed: true,
			Err: fmt.Sprintf("federated: round %d closed at quorum", msg.Round),
		}
	case errors.Is(err, dist.ErrNotMember):
		return &dist.Message{Kind: dist.MsgAck,
			Err: fmt.Sprintf("federated: client %d is not in round %d's cohort", id, c.round)}
	case err != nil:
		return &dist.Message{Kind: dist.MsgAck,
			Err: fmt.Sprintf("federated: client %d already uploaded in round %d", id, c.round)}
	}
	// Validate every variable before touching the accumulator, so a
	// malformed upload is rejected atomically. The payloads alias the
	// received frame; nothing is unpacked or copied.
	width := c.codec.width()
	payloads := make([][]byte, len(c.names))
	var bytes int64
	for i, name := range c.names {
		blob, ok := msg.Grads[name]
		if !ok {
			return &dist.Message{Kind: dist.MsgAck,
				Err: fmt.Sprintf("federated: client %d upload is missing variable %q", id, name)}
		}
		payload, err := c.codec.parseUpdate(blob, len(c.acc[i])/width)
		if err != nil {
			return &dist.Message{Kind: dist.MsgAck, Err: fmt.Sprintf("client %d %q: %v", id, name, err)}
		}
		payloads[i] = payload
		bytes += int64(len(blob))
	}
	if len(msg.Grads) != len(c.names) {
		return &dist.Message{Kind: dist.MsgAck,
			Err: fmt.Sprintf("federated: client %d uploaded %d variables, the model has %d",
				id, len(msg.Grads), len(c.names))}
	}
	if c.cfg.Tap != nil {
		for _, name := range c.names {
			c.cfg.Tap(c.round, id, name, msg.Grads[name])
		}
	}
	for i, payload := range payloads {
		ring.Add(c.acc[i], payload, width)
	}
	c.stats.Accepted++
	c.stats.UplinkBytes += bytes
	if c.uploads.Push(id) {
		c.closeRoundLocked()
	}
	return &dist.Message{Kind: dist.MsgAck, OK: true, Round: msg.Round}
}

// closeRoundLocked takes a quorum-filled round, which admits no more
// uploads, towards commit: via the seed-reveal phase if some survivor
// paired with a sampled client that did not upload, directly otherwise
// (or if masking is off).
func (c *Coordinator) closeRoundLocked() {
	c.owed = make(map[uint32][]uint32)
	for i, id := range c.cohort {
		for j, peer := range c.cohort {
			if !c.cfg.Unmasked && c.uploads.Pushed[id] && !c.uploads.Pushed[peer] && c.graph.adjacent(i, j) {
				c.owed[id] = append(c.owed[id], peer)
			}
		}
	}
	if len(c.owed) == 0 {
		c.finalizeLocked()
		return
	}
	c.revealed = make(map[uint32]bool, len(c.owed))
}

// seeds validates one survivor's seed reveal for its dead neighbours
// and keeps the streams that cancel their masks (a malformed reveal —
// a seed missing, or one for a member it did not pair with — keeps
// none). The round commits once every survivor with a dead neighbour
// revealed.
func (c *Coordinator) seeds(msg *dist.Message) *dist.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := msg.Worker
	fail := func(format string, args ...any) *dist.Message {
		return &dist.Message{Kind: dist.MsgAck, Err: fmt.Sprintf(format, args...)}
	}
	switch {
	case !c.uploads.Closed() || msg.Round != c.round:
		return fail("federated: round %d is not collecting seed reveals", msg.Round)
	case !c.uploads.Pushed[id]:
		return fail("federated: client %d did not upload in round %d, nothing to reveal", id, c.round)
	case c.owed[id] == nil:
		return fail("federated: client %d has no dead neighbour in round %d, nothing to reveal", id, c.round)
	case c.revealed[id]:
		return fail("federated: client %d already revealed for round %d", id, c.round)
	case len(msg.Grads) != len(c.owed[id]):
		return fail("federated: client %d revealed %d seeds, it has %d dead neighbours in round %d",
			id, len(msg.Grads), len(c.owed[id]), c.round)
	}
	streams := make([]maskStream, 0, len(c.owed[id]))
	for _, deadID := range c.owed[id] {
		blob, ok := msg.Grads[strconv.FormatUint(uint64(deadID), 10)]
		if !ok {
			return fail("federated: client %d's reveal is missing its dead neighbour %d", id, deadID)
		}
		if len(blob) != seccrypto.KeySize {
			return fail("federated: client %d revealed a %d-byte seed for client %d, want %d",
				id, len(blob), deadID, seccrypto.KeySize)
		}
		// The survivor added the pair's mask if it is the lower id and
		// subtracted it otherwise; the commit applies the inverse.
		streams = append(streams, maskStream{seccrypto.Key(blob), id > deadID})
	}
	c.unmask = append(c.unmask, streams...)
	c.revealed[id] = true
	c.stats.Reveals++
	if len(c.revealed) == len(c.owed) {
		c.finalizeLocked()
	}
	return &dist.Message{Kind: dist.MsgAck, OK: true, Round: msg.Round}
}

// finalizeLocked commits the round: the dead clients' masks are
// cancelled (all revealed streams at once, over the processors), the
// ring sum is decoded, averaged and applied to the globals, and the
// next round opens (or training completes).
func (c *Coordinator) finalizeLocked() {
	q := float64(len(c.uploads.Pushed))
	width := c.codec.width()
	applyMasks(c.acc, width, c.unmask)
	for n, name := range c.names {
		v := c.vars[name].Floats()
		coords := c.coords[n]
		for w := 0; w < len(c.acc[n])/width; w++ {
			i := w
			if coords != nil {
				i = coords[w]
			}
			v[i] += float32(c.codec.decodeSum(c.acc[n], w) / q)
		}
	}
	c.stats.Rounds++
	c.round++
	if c.stats.Rounds >= c.cfg.Rounds {
		c.done = true
		return
	}
	c.openRoundLocked()
}
