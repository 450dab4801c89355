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
	// blob, which is the connection's read buffer and valid only for
	// the call. The sum-only property test uses it to pin that individual
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

	mu   sync.Mutex
	vars map[string]*tf.Tensor // working globals, mutated only in finalize

	// Per-round state, rebuilt by openRound. snapshot, cohort and dead
	// are immutable once published (replies reference them outside mu).
	round       uint64
	patternSeed uint64
	cohort      []uint32
	cohortSet   map[uint32]bool
	snapshot    map[string]*tf.Tensor
	coords      [][]int  // per variable, parallel to names; nil = dense
	acc         [][]byte // per variable: the packed ring sum of the accepted payloads
	received    map[uint32]bool
	closing     bool
	dead        []uint32
	revealed    map[uint32]bool

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
	c.srv = wire.Serve(cfg.Listener, c.serve)
	return c, nil
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
	c.cohortSet = make(map[uint32]bool, len(c.cohort))
	for _, id := range c.cohort {
		c.cohortSet[id] = true
	}
	c.patternSeed = roundPatternSeed(c.cfg.Seed, c.round)
	c.snapshot = c.cloneVarsLocked()
	c.coords = make([][]int, len(c.names))
	c.acc = make([][]byte, len(c.names))
	for i, name := range c.names {
		n := len(c.vars[name].Floats())
		c.coords[i] = c.codec.coords(c.patternSeed, name, n)
		c.acc[i] = make([]byte, wordCount(c.coords[i], n)*c.codec.width())
	}
	c.received = make(map[uint32]bool, c.cfg.Quorum)
	c.closing = false
	c.dead = nil
	c.revealed = nil
}

// Vars returns a snapshot of the current global variables.
func (c *Coordinator) Vars() map[string]*tf.Tensor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cloneVarsLocked()
}

func (c *Coordinator) cloneVarsLocked() map[string]*tf.Tensor {
	out := make(map[string]*tf.Tensor, len(c.vars))
	for name, t := range c.vars {
		out[name] = t.Clone()
	}
	return out
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

// serve runs one client's connection through a link, whose two frame
// buffers go with it. The connection speaks for the one client id its
// hello carried: a poll, push or reveal before a successful hello, or in
// another client's name, is refused and changes nothing.
func (c *Coordinator) serve(conn net.Conn) {
	l := dist.NewLink(conn, nil)
	var id uint32
	greeted := false
	for {
		msg, err := l.Receive(c.cfg.Meter)
		if err != nil {
			return
		}
		var resp *dist.Message
		switch kind := msg.Kind; {
		case kind == dist.MsgHello && greeted && msg.Worker != id:
			resp = &dist.Message{Kind: dist.MsgManifest,
				Err: fmt.Sprintf("federated: this connection speaks for client %d, not %d", id, msg.Worker)}
		case kind == dist.MsgHello:
			resp = c.handshake(msg)
			id, greeted = msg.Worker, resp.OK
		case kind != dist.MsgFedPoll && kind != dist.MsgFedPush && kind != dist.MsgFedSeeds:
			resp = &dist.Message{Kind: dist.MsgAck, Err: fmt.Sprintf("federated: unknown message kind %d", kind)}
		case !greeted || msg.Worker != id:
			resp = &dist.Message{Kind: dist.MsgAck,
				Err: fmt.Sprintf("federated: message kind %d for client %d on a connection that has not said hello as it", kind, msg.Worker)}
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

// poll answers a client's work request: a round assignment if the
// client is sampled and has not uploaded yet, an unmask request if the
// round is closing and the client owes seed reveals, a wait otherwise,
// and a terminal refusal once training is complete.
func (c *Coordinator) poll(msg *dist.Message) *dist.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := msg.Worker
	switch {
	case c.done:
		return &dist.Message{Kind: dist.MsgAck, Err: trainingCompleteErr}
	case c.closing:
		if c.received[id] && !c.revealed[id] {
			return &dist.Message{Kind: dist.MsgFedUnmask, OK: true, Round: c.round, Clients: c.dead}
		}
		return &dist.Message{Kind: dist.MsgFedRound, OK: true, Closed: true}
	case c.cohortSet[id] && !c.received[id]:
		return &dist.Message{
			Kind:    dist.MsgFedRound,
			OK:      true,
			Round:   c.round,
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
	if c.done || c.closing || msg.Round != c.round {
		c.stats.Refusals++
		return &dist.Message{
			Kind: dist.MsgAck, Closed: true,
			Err: fmt.Sprintf("federated: round %d closed at quorum", msg.Round),
		}
	}
	if !c.cohortSet[id] {
		return &dist.Message{Kind: dist.MsgAck,
			Err: fmt.Sprintf("federated: client %d is not in round %d's cohort", id, c.round)}
	}
	if c.received[id] {
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
	c.received[id] = true
	c.stats.Accepted++
	c.stats.UplinkBytes += bytes
	if len(c.received) >= c.cfg.Quorum {
		c.closeRoundLocked()
	}
	return &dist.Message{Kind: dist.MsgAck, OK: true, Round: msg.Round}
}

// closeRoundLocked transitions a quorum-filled round towards commit:
// directly if every sampled client made it (or masking is off), via the
// seed-reveal phase otherwise.
func (c *Coordinator) closeRoundLocked() {
	var dead []uint32
	for _, id := range c.cohort {
		if !c.received[id] {
			dead = append(dead, id)
		}
	}
	if len(dead) == 0 || c.cfg.Unmasked {
		c.finalizeLocked()
		return
	}
	c.closing = true
	c.dead = dead
	c.revealed = make(map[uint32]bool, len(c.received))
}

// seeds processes one survivor's seed reveal for the round's dead
// clients, subtracting the masks the dead left uncancelled. The round
// commits once every accepted uploader has revealed.
func (c *Coordinator) seeds(msg *dist.Message) *dist.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := msg.Worker
	fail := func(format string, args ...any) *dist.Message {
		return &dist.Message{Kind: dist.MsgAck, Err: fmt.Sprintf(format, args...)}
	}
	switch {
	case !c.closing || msg.Round != c.round:
		return fail("federated: round %d is not collecting seed reveals", msg.Round)
	case !c.received[id]:
		return fail("federated: client %d did not upload in round %d, nothing to reveal", id, c.round)
	case c.revealed[id]:
		return fail("federated: client %d already revealed for round %d", id, c.round)
	case len(msg.Grads) != len(c.dead):
		return fail("federated: client %d revealed %d seeds, round %d has %d dead clients",
			id, len(msg.Grads), c.round, len(c.dead))
	}
	seedOf := make(map[uint32]seccrypto.Key, len(c.dead))
	for _, deadID := range c.dead {
		blob, ok := msg.Grads[strconv.FormatUint(uint64(deadID), 10)]
		if !ok {
			return fail("federated: client %d's reveal is missing dead client %d", id, deadID)
		}
		if len(blob) != seccrypto.KeySize {
			return fail("federated: client %d revealed a %d-byte seed for client %d, want %d",
				id, len(blob), deadID, seccrypto.KeySize)
		}
		var key seccrypto.Key
		copy(key[:], blob)
		seedOf[deadID] = key
	}
	for _, deadID := range c.dead {
		subtractDeadMasks(c.acc, c.codec.width(), seedOf[deadID], id, deadID, c.round)
	}
	c.revealed[id] = true
	c.stats.Reveals++
	if len(c.revealed) == len(c.received) {
		c.finalizeLocked()
	}
	return &dist.Message{Kind: dist.MsgAck, OK: true, Round: msg.Round}
}

// finalizeLocked commits the round: the accumulated ring sum — masks
// cancelled — is decoded, averaged over the accepted uploads and
// applied to the globals, and the next round opens (or training
// completes).
func (c *Coordinator) finalizeLocked() {
	q := float64(len(c.received))
	width := c.codec.width()
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
