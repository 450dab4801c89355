package federated

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
)

// ClientConfig configures one simulated federated client.
type ClientConfig struct {
	// ID is the client's identity in [0, Population). Required to be in
	// range; the coordinator refuses out-of-population ids.
	ID int
	// Addr is the coordinator endpoint. Required.
	Addr string
	// Dial opens the connection. Route it through the client's
	// container so the network shield's TLS applies. Defaults to
	// net.Dial.
	Dial func(network, addr string) (net.Conn, error)
	// Plan is the training step of the client's model (dist.NewPlan).
	// Required. Clients may share one plan: each opens its own session,
	// and so its own variables, over the plan's graph. Build the model
	// from the same seed as the coordinator's variables.
	Plan *dist.Plan
	// XS and YS are the client's private data shard. Required.
	XS, YS *tf.Tensor
	// BatchSize is the local minibatch size. Required, ≥ 1.
	BatchSize int
	// LocalSteps is the number of local SGD steps per round. Required,
	// ≥ 1.
	LocalSteps int
	// LocalLR is the local SGD learning rate. Required, > 0.
	LocalLR float64
	// Codec is the uplink quantizer; must match the coordinator's.
	Codec dist.Compression
	// Population is the expected client population N; the handshake
	// verifies it.
	Population int
	// Secret is the cohort masking secret shared by all clients (and
	// withheld from the coordinator). Required unless Unmasked.
	Secret []byte
	// Unmasked disables pairwise masking; must match the coordinator.
	Unmasked bool
	// Meter charges the client's virtual clock for its frames. The zero
	// value is a fresh clock at sgx.DefaultParams.
	Meter sgx.Meter
	// MaxIdlePolls bounds consecutive no-work polls, turning a stuck
	// job (e.g. a quorum that can never fill) into an error instead of
	// a hang. Zero means 10000.
	MaxIdlePolls int
	// Delay injects extra virtual time after local training for the
	// given round — the straggler knob of the quorum tests.
	Delay func(round uint64) time.Duration
	// DropBeforePush simulates a mid-round failure: when it returns
	// true for a round the client trains, masks, then drops its
	// connection instead of uploading, rejoins, and sits the round out.
	// Fires at most once per round.
	DropBeforePush func(round uint64) bool
	// Turnstile, when set, serializes this client's network actions
	// with its peers in deterministic (virtual time, id) order — the
	// discrete-event mode that makes whole runs bit-reproducible. Nil
	// runs the client free-threaded.
	Turnstile *Turnstile
}

// ClientStats counts one client's lifetime events.
type ClientStats struct {
	// Applied is the number of rounds whose upload was accepted.
	Applied int
	// Refusals counts uploads refused because the round had closed at
	// quorum — this client straggled.
	Refusals int
	// Rejoins counts reconnects after injected drops.
	Rejoins int
	// Reveals counts seed reveals uploaded for dead peers.
	Reveals int
	// UplinkBytes totals the payload bytes of this client's uploads,
	// accepted or not.
	UplinkBytes int64
}

// Client is one simulated federated participant: it polls the
// coordinator for round assignments, trains locally on its private
// shard, masks and uploads its quantized update, and reveals pair
// seeds when the coordinator reports dead cohort members.
//
// Between rounds a client keeps its connection, its error-feedback
// residuals and the pair seeds of the peers it has met. A round's
// buffers it holds from the assignment to the round's end for it (the
// ack, the refusal, the drop or the sit-out), and a session of its plan
// only while it trains.
type Client struct {
	cfg ClientConfig
	// link is the coordinator connection, nil between a drop and the
	// rejoin: a round assignment is decoded straight into the round's
	// delta buffers. Under a Turnstile it borrows its frame buffers from
	// the turnstile's list.
	link      *dist.Link
	replica   *dist.Replica
	gradNames []string   // sorted: the wire walk order of every mask stream
	vars      []roundVar // per-variable state, parallel to gradNames
	// rounds is where round buffers come from, the turnstile's list or,
	// free-threaded, one of the client's own; round is the set it holds,
	// nil between rounds.
	rounds *roundList
	round  *roundBufs
	seeds  pairSeeds
	stats  ClientStats

	// turn is the client's place at its Turnstile while it runs.
	turn turn

	// droppedRound marks the round this client trained but dropped out
	// of; a re-assignment of the same round is sat out so the quorum
	// membership stays exactly the surviving uploaders.
	droppedRound uint64
	hasDropped   bool

	// peers are this client's neighbours in peersRound's pairing graph:
	// the members it masked with, and the only ones it reveals seeds for.
	peers      []uint32
	peersRound uint64
}

// roundVar is what a client keeps of one variable.
type roundVar struct {
	// value is the held session's tensor of the variable while the
	// client trains: the assignment is copied into it and the local
	// steps update it in place. The client does not touch it once the
	// round's delta is computed and the session given back.
	value *tf.Tensor
	// residual is the committed error-feedback residual, made at the
	// client's first round. It is overwritten with the residual a round
	// leaves behind only when the upload is acked as accepted, so a
	// refused or dropped round leaves it exactly as it was.
	residual []float32
}

// roundBufs is one held round's buffers, per variable in sorted
// manifest order.
type roundBufs struct {
	// delta holds the round's assigned global value, decoded into it,
	// then, in place, the local training delta against it, and after the
	// encode the error-feedback residual this round's upload leaves
	// behind.
	delta []*tf.Tensor
	// blob is the upload: header, then the packed ring words the delta
	// is quantized into and masked in.
	blob [][]byte
}

// roundList is a free list of round buffers for the clients of one job
// (a Turnstile's) or for one free-threaded client: a client takes a set
// when an assignment arrives and gives it back when the round ends for
// it, so the list holds as many sets as its clients hold rounds at once.
// Its clients train one model: a set of other shapes would fail the
// assignment's decode, not corrupt it.
type roundList struct {
	mu   sync.Mutex
	free []*roundBufs
}

// get takes a set off the list, nil if there is none.
func (l *roundList) get() *roundBufs {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := len(l.free) - 1
	if last < 0 {
		return nil
	}
	b := l.free[last]
	l.free[last], l.free = nil, l.free[:last]
	return b
}

func (l *roundList) put(b *roundBufs) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}

// NewClient validates cfg, dials the coordinator and completes the
// manifest handshake.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("federated: ClientConfig.Addr is required")
	}
	if cfg.LocalSteps < 1 {
		return nil, fmt.Errorf("federated: ClientConfig.LocalSteps must be ≥ 1, got %d", cfg.LocalSteps)
	}
	if cfg.LocalLR <= 0 {
		return nil, fmt.Errorf("federated: ClientConfig.LocalLR must be > 0, got %v", cfg.LocalLR)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Population {
		return nil, fmt.Errorf("federated: client id %d outside the population of %d", cfg.ID, cfg.Population)
	}
	var err error
	if cfg.Codec, err = cfg.Codec.Canonical(); err != nil {
		return nil, err
	}
	if !cfg.Unmasked && len(cfg.Secret) == 0 {
		return nil, errors.New("federated: ClientConfig.Secret is required for masked aggregation")
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.Meter.Clock() == nil {
		cfg.Meter = sgx.NewMeter(&vtime.Clock{}, sgx.DefaultParams())
	}
	if cfg.MaxIdlePolls == 0 {
		cfg.MaxIdlePolls = 10000
	}

	if cfg.Plan == nil {
		return nil, errors.New("federated: ClientConfig.Plan is required")
	}
	replica, err := dist.NewReplica(cfg.Plan, cfg.XS, cfg.YS, cfg.BatchSize, int64(cfg.ID)+1)
	if err != nil {
		return nil, fmt.Errorf("federated: client %d: %w", cfg.ID, err)
	}
	c := &Client{
		cfg: cfg, replica: replica, gradNames: slices.Sorted(slices.Values(replica.Names())),
		rounds: cfg.Turnstile.roundBuffers(), seeds: pairSeeds{secret: cfg.Secret, self: uint32(cfg.ID)},
	}
	c.vars = make([]roundVar, len(c.gradNames))
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns the client's event counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Close drops the coordinator connection.
func (c *Client) Close() error {
	if c.link == nil {
		return nil
	}
	err := c.link.Close()
	c.link = nil
	return err
}

// connect dials the coordinator and runs the manifest handshake,
// verifying population, codec, masking mode and the variable manifest.
// Rejoin after a drop is the same handshake.
func (c *Client) connect() error {
	conn, err := c.cfg.Dial("tcp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("federated: client %d dial %s: %w", c.cfg.ID, c.cfg.Addr, err)
	}
	l := c.cfg.Turnstile.link(conn, c.assigned)
	kind, fraction := c.cfg.Codec.Wire()
	resp, _, err := l.RoundTrip(c.cfg.Meter, &dist.Message{
		Kind:   dist.MsgHello,
		Worker: uint32(c.cfg.ID),
		Shards: uint32(c.cfg.Population),
		Policy: maskedPolicy(c.cfg.Unmasked),
		Codec:  kind,
		TopK:   fraction,
	})
	switch {
	case err != nil:
		err = fmt.Errorf("federated: client %d handshake: %w", c.cfg.ID, err)
	case resp.Kind != dist.MsgManifest:
		err = fmt.Errorf("federated: client %d handshake got message kind %d", c.cfg.ID, resp.Kind)
	case !resp.OK:
		err = errors.New(resp.Err)
	case !slices.Equal(resp.Names, c.gradNames):
		err = fmt.Errorf("federated: coordinator serves variables %v, the client model has %v", resp.Names, c.gradNames)
	}
	if err != nil {
		l.Close()
		return err
	}
	c.link = l
	return nil
}

// assigned is the link's destination of an assignment's variables: the
// delta buffers of the round it assigns, which the client takes from
// its list when the first of them arrives.
func (c *Client) assigned(name string) *tf.Tensor {
	i, ok := slices.BinarySearch(c.gradNames, name)
	if !ok {
		return nil
	}
	if c.round == nil {
		if c.round = c.rounds.get(); c.round == nil {
			c.round = &roundBufs{delta: make([]*tf.Tensor, len(c.gradNames)), blob: make([][]byte, len(c.gradNames))}
			for j, name := range c.gradNames {
				c.round.delta[j] = tf.NewTensor(tf.Float32, c.replica.Shape(name))
			}
		}
	}
	return c.round.delta[i]
}

// endRound gives the round buffers the client holds back to its list.
func (c *Client) endRound() {
	if c.round != nil {
		c.rounds.put(c.round)
		c.round = nil
	}
}

// Run participates until the coordinator reports training complete.
// Every network action is taken under a turnstile turn when one is
// configured, so concurrent clients interleave deterministically.
func (c *Client) Run() error {
	c.turn = c.cfg.Turnstile.join(c.cfg.ID, c.cfg.Meter.Clock())
	defer c.turn.leave()
	defer c.Close()
	idle := 0
	for {
		c.turn.request()
		c.turn.wait()
		resp, _, err := c.link.RoundTrip(c.cfg.Meter, &dist.Message{Kind: dist.MsgFedPoll, Worker: uint32(c.cfg.ID)})
		if err != nil {
			c.turn.release()
			return fmt.Errorf("federated: client %d poll: %w", c.cfg.ID, err)
		}
		switch {
		case resp.Kind == dist.MsgAck && resp.Err == trainingCompleteErr:
			c.turn.release()
			return nil
		case resp.Kind == dist.MsgAck:
			c.turn.release()
			return fmt.Errorf("federated: client %d poll refused: %s", c.cfg.ID, resp.Err)
		case resp.Kind == dist.MsgFedUnmask:
			err := c.reveal(resp)
			c.turn.release()
			if err != nil {
				return err
			}
			idle = 0
		case resp.Kind == dist.MsgFedRound && resp.Closed,
			resp.Kind == dist.MsgFedRound && c.hasDropped && resp.Round == c.droppedRound:
			// No work: the round is closing, we are not sampled, or we
			// dropped out of this round and must sit out its re-assignment
			// so the quorum membership stays the surviving uploaders.
			c.endRound()
			c.cfg.Meter.Clock().Advance(pollInterval)
			c.turn.release()
			idle++
			if idle > c.cfg.MaxIdlePolls {
				return fmt.Errorf("federated: client %d made no progress in %d polls", c.cfg.ID, idle)
			}
		case resp.Kind == dist.MsgFedRound:
			idle = 0
			err := c.runRound(resp)
			if err != nil {
				return err
			}
		default:
			c.turn.release()
			return fmt.Errorf("federated: client %d poll got message kind %d", c.cfg.ID, resp.Kind)
		}
	}
}

// runRound executes one assignment: install the globals, train
// locally, quantize + mask the delta against the client's neighbours in
// the round's pairing graph (whose degree the assignment's Step names),
// and upload — or drop out if the failure injection says so. No local
// work charges the client's clock (the replica's session runs on a
// device.Null, the codec and masks are free), so under the poll turn
// the client charges the round's LocalSteps·stepCost plus
// Delay, asks for its push turn at that clock and releases; it trains
// and masks while its peers take their turns. A client due to drop
// works inside the poll turn.
func (c *Client) runRound(asg *dist.Message) error {
	round := asg.Round
	// The link decoded the assignment into the round's delta buffers,
	// those it named; a variable of another shape it refused with the
	// frame.
	for _, name := range c.gradNames {
		if asg.Vars[name] == nil {
			c.turn.release()
			return fmt.Errorf("federated: round %d assignment is missing variable %q", round, name)
		}
	}
	if !c.cfg.Unmasked {
		if err := c.pair(asg); err != nil {
			c.turn.release()
			return err
		}
	}
	c.cfg.Meter.Clock().Advance(time.Duration(c.cfg.LocalSteps) * stepCost)
	if c.cfg.Delay != nil {
		c.cfg.Meter.Clock().Advance(c.cfg.Delay(round))
	}
	drop := c.cfg.DropBeforePush != nil && !(c.hasDropped && c.droppedRound == round) && c.cfg.DropBeforePush(round)
	if !drop {
		c.turn.request()
		c.turn.release()
	}
	if err := c.train(); err != nil {
		c.turn.release()
		return err
	}

	// Quantize the round delta (with carried residual) straight into each
	// upload blob's payload, at the round's shared coordinate pattern.
	codec := ringCodec{c.cfg.Codec}
	payloads := make([][]byte, len(c.gradNames))
	for i, name := range c.gradNames {
		v, delta := &c.vars[i], c.round.delta[i].Floats()
		if v.residual == nil {
			v.residual = make([]float32, len(delta))
		}
		coords := codec.coords(asg.Seed, name, len(delta))
		blob := &c.round.blob[i]
		if size := codec.blobSize(wordCount(coords, len(delta))); len(*blob) != size {
			*blob = make([]byte, size)
		}
		codec.marshalUpdate(*blob)
		payloads[i] = (*blob)[updateHeader:]
		codec.encodeVar(payloads[i], delta, v.residual, delta, coords)
	}
	if !c.cfg.Unmasked {
		c.seeds.mask(payloads, codec.width(), c.peers, round)
	}

	if drop {
		// Injected failure: drop the connection instead of uploading,
		// then rejoin. Residuals stay uncommitted — nothing was sent.
		c.endRound()
		c.Close()
		c.turn.release()
		c.hasDropped, c.droppedRound = true, round
		c.stats.Rejoins++
		return c.connect()
	}

	// The upload is the turn asked for at the post-training clock, so
	// punctual cohort peers upload first and a straggler meets the
	// closed round exactly as the virtual timeline says it should.
	c.turn.wait()
	defer c.turn.release()
	req := &dist.Message{Kind: dist.MsgFedPush, Worker: uint32(c.cfg.ID), Round: round,
		Grads: make(map[string][]byte, len(c.gradNames))}
	for i, name := range c.gradNames {
		req.Grads[name] = c.round.blob[i]
		c.stats.UplinkBytes += int64(len(c.round.blob[i]))
	}
	ack, _, err := c.link.RoundTrip(c.cfg.Meter, req)
	if err != nil {
		return fmt.Errorf("federated: client %d push: %w", c.cfg.ID, err)
	}
	if ack.Kind != dist.MsgAck {
		return fmt.Errorf("federated: client %d push got message kind %d", c.cfg.ID, ack.Kind)
	}
	switch {
	case ack.OK:
		// Applied: commit the error-feedback residuals the encode left
		// in delta.
		for i := range c.vars {
			copy(c.vars[i].residual, c.round.delta[i].Floats())
		}
		c.stats.Applied++
	case ack.Closed:
		// Straggled past the quorum: retryable, residuals untouched —
		// the mass this upload carried was never applied, so it stays
		// in the next round's delta.
		c.stats.Refusals++
	default:
		return fmt.Errorf("federated: client %d push rejected: %s", c.cfg.ID, ack.Err)
	}
	c.endRound()
	return nil
}

// train runs the round's local steps on a session it holds only for
// them: the assignment is copied in from the delta buffers, and on the
// way out each is overwritten with the local training delta.
func (c *Client) train() error {
	if err := c.replica.Hold(); err != nil {
		return err
	}
	defer c.replica.Release()
	for i, name := range c.gradNames {
		c.vars[i].value = c.replica.Variable(name)
		copy(c.vars[i].value.Floats(), c.round.delta[i].Floats())
	}
	for s := 0; s < c.cfg.LocalSteps; s++ {
		_, grads, err := c.replica.Step(s)
		if err != nil {
			return err
		}
		c.replica.ApplySGD(float32(c.cfg.LocalLR), grads)
	}
	for i := range c.vars {
		delta := c.round.delta[i].Floats()
		for j, now := range c.vars[i].value.Floats() {
			delta[j] = now - delta[j]
		}
	}
	return nil
}

// pair finds this client's neighbours in the assignment's pairing
// graph, refusing a degree below the client's floor.
func (c *Client) pair(asg *dist.Message) error {
	self := slices.Index(asg.Clients, uint32(c.cfg.ID))
	if self < 0 {
		return fmt.Errorf("federated: client %d is not in round %d's cohort %v", c.cfg.ID, asg.Round, asg.Clients)
	}
	n, d := len(asg.Clients), int(min(asg.Step, uint64(len(asg.Clients))))
	if err := checkDegree(n, d); err != nil {
		return fmt.Errorf("federated: client %d refuses round %d: %w", c.cfg.ID, asg.Round, err)
	}
	c.peers, c.peersRound = newPairingGraph(n, asg.Seed, d).neighbours(asg.Clients, self), asg.Round
	return nil
}

// reveal answers an unmask request: upload this round's pair keys with
// the dead neighbours, so the coordinator can cancel the masks the dead
// left behind. A request that names a member this client did not mask
// with, or every member it did, is refused: the second would strip its
// whole mask.
func (c *Client) reveal(req *dist.Message) error {
	if req.Round != c.peersRound || c.peers == nil {
		return fmt.Errorf("federated: client %d was asked to unmask round %d, which it did not mask", c.cfg.ID, req.Round)
	}
	msg := &dist.Message{Kind: dist.MsgFedSeeds, Worker: uint32(c.cfg.ID), Round: req.Round,
		Grads: make(map[string][]byte, len(req.Clients))}
	for _, deadID := range req.Clients {
		if !slices.Contains(c.peers, deadID) {
			return fmt.Errorf("federated: client %d was asked for its seed with %d, not its neighbour in round %d", c.cfg.ID, deadID, req.Round)
		}
		key := roundKey(c.seeds.seed(deadID), req.Round)
		msg.Grads[strconv.FormatUint(uint64(deadID), 10)] = append([]byte(nil), key[:]...)
	}
	if len(msg.Grads) == len(c.peers) {
		return fmt.Errorf("federated: client %d was asked for the seeds of all %d of its neighbours in round %d", c.cfg.ID, len(c.peers), req.Round)
	}
	ack, _, err := c.link.RoundTrip(c.cfg.Meter, msg)
	if err != nil {
		return fmt.Errorf("federated: client %d reveal: %w", c.cfg.ID, err)
	}
	if ack.Kind != dist.MsgAck || !ack.OK {
		return fmt.Errorf("federated: client %d reveal rejected: %s", c.cfg.ID, ack.Err)
	}
	c.stats.Reveals += len(req.Clients)
	return nil
}
