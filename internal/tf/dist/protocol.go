package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
)

// Message kinds of the parameter-exchange protocol.
const (
	msgPull     uint8 = iota + 1 // worker → PS: request current variables
	msgVars                      // PS → worker: variable snapshot
	msgPush                      // worker → PS: gradient contribution
	msgAck                       // PS → worker: round committed (or aborted)
	msgHello                     // worker → PS: expected shard id/count handshake
	msgManifest                  // PS → worker: shard id/count + owned-variable manifest

	// Federated round protocol (internal/federated). Clients drive every
	// exchange; the coordinator only ever answers, so its serve loop
	// never blocks on a peer.
	msgFedPoll   // client → coordinator: ask for work (round assignment)
	msgFedRound  // coordinator → client: round assignment, wait, or done
	msgFedUnmask // coordinator → client: reveal pair seeds for dead neighbours
	msgFedPush   // client → coordinator: masked model update for a round
	msgFedSeeds  // client → coordinator: pair-seed reveal for dead neighbours
)

// message is the decoded form of one protocol frame.
//
// Stamp is the sender's virtual clock (ns) once the frame's serialization
// is charged; the receiver arrives at it (sgx.Meter.Arrive), which keeps
// virtual time causally consistent across nodes without a global clock.
type message struct {
	Kind   uint8
	Stamp  int64
	Worker uint32
	// Round is the PS's barrier generation (sync) or variable version
	// (async): handed out with each variable snapshot (msgVars) and
	// echoed back on the matching push. In sync mode a push for a round
	// that has already committed or aborted is rejected instead of
	// silently seeding the next round with stale gradients; in async
	// mode a push whose version lags the shard's current one by more
	// than the staleness bound is rejected for retry.
	Round uint64
	// Step is the pushing worker's local step counter, carried on every
	// push so the parameter server can account per-worker progress (the
	// bounded-staleness experiments read it back via WorkerSteps). On a
	// federated round assignment (msgFedRound) it is the degree d of the
	// round's pairing graph: each cohort member masks with its d
	// neighbours only, and refuses a d below min(n−1, 2⌈log₂ n⌉) or
	// above n−1 for a cohort of n.
	Step uint64
	// Shard and Shards carry the shard-placement handshake: on msgHello
	// the worker's expectation of the endpoint it dialed, on msgManifest
	// the parameter-server shard's actual identity. A mismatch means a
	// mis-sharded or partially started cluster and fails the connection
	// up front instead of letting a round hang on a wrong barrier.
	Shard  uint32
	Shards uint32
	// Policy and Staleness carry the shard's ConsistencyPolicy through
	// the handshake: on msgHello the worker's expectation, on
	// msgManifest the shard's actual policy. A mismatch — a worker
	// configured sync against an async shard, or for a different
	// staleness bound — fails the connection up front, so mixed-policy
	// clusters cannot strand one side on a barrier the other never
	// fills.
	Policy    uint8
	Staleness int64
	// Names is the sorted manifest of variable names this shard owns
	// (msgManifest), so the worker can verify the name-hash placement it
	// computed locally matches the server's before any round starts.
	Names []string
	// Codec and TopK carry the cluster's gradient Compression through
	// the handshake exactly like the consistency policy: on msgHello the
	// codec the worker will push with, on msgManifest the codec the
	// shard decodes. A mismatch fails the connection up front — a
	// mixed-codec cluster would corrupt gradients silently, so it must
	// not connect at all. TopK is the fraction's IEEE-754 bits, so the
	// comparison is exact.
	Codec uint8
	TopK  uint64
	// Vars carries the variable snapshot (msgVars) or the gradient
	// contribution (msgPush), keyed by variable name.
	Vars map[string]*tf.Tensor
	// Grads carries the compressed gradient contribution (msgPush under
	// a non-None codec), keyed by variable name: one self-describing
	// blob per tensor in the compress format. Exactly one of Vars and
	// Grads is populated on a push.
	Grads map[string][]byte
	// OK and Err report round commit or abort (msgAck) and handshake
	// acceptance (msgManifest). Stale marks an async rejection for
	// exceeding the staleness bound — the one retryable failure: the
	// worker re-pulls, recomputes and pushes again rather than aborting
	// the job.
	OK    bool
	Stale bool
	Err   string
	// Closed marks a federated round refusal: the round the client
	// pushed (or polled) for has already completed at quorum. Like Stale
	// it is the retryable failure of its protocol — the client moves on
	// to the next round's poll instead of aborting. A late update for a
	// closed round must be refused outright: once the dead clients' pair
	// seeds have been revealed, accepting the straggler's masked payload
	// would let the coordinator unmask it.
	Closed bool
	// Seed is the per-round pattern seed of a federated round assignment
	// (msgFedRound): both sides expand it through the deterministic PRG
	// to the round's shared top-k coordinate pattern, so sparsification
	// costs no index bytes on the wire and every cohort member masks the
	// same coordinates.
	Seed uint64
	// Clients carries a federated client-id set: the round's sampled
	// cohort on msgFedRound, the recipient's dead neighbours awaiting
	// unmasking on msgFedUnmask. Always sorted ascending.
	Clients []uint32
	// Evicted marks an elasticity event on a synchronous shard. On
	// msgAck it is the retryable-in-spirit rejection of the
	// barrier-shrink protocol: the pushing worker was declared dead
	// when a round timed out (or is awaiting fold-in after rejoining),
	// so its gradient was dropped — the worker re-runs the manifest
	// handshake to rejoin and its next step contributes again. On
	// msgManifest it acknowledges a rejoin: the shard recognized a
	// previously evicted worker and seats it at the barrier at the next
	// round boundary.
	Evicted bool
}

// size is the length of the payload encode appends.
func (m *message) size() int {
	// fixed: every fixed-width field, flag and count encode writes, both
	// trailing extensions included.
	const fixed = 1 + 8 + 4 + 8 + 8 + 4 + 4 + 1 + 8 + 1 + 1 + 4 + 4 + 4 + 1 + 8 + 4 + (1 + 8 + 4) + 1
	size := fixed + len(m.Err) + 4*len(m.Clients)
	for _, name := range m.Names {
		size += 4 + len(name)
	}
	for name, t := range m.Vars {
		size += 4 + len(name) + 4 + tf.EncodedTensorLen(t)
	}
	for name, blob := range m.Grads {
		size += 4 + len(name) + 4 + len(blob)
	}
	return size
}

// encode appends the message payload (everything after the length
// prefix) to dst, which a connection passes as a frame buffer begun with
// wire.StartFrame.
func (m *message) encode(dst []byte) []byte {
	// Size the buffer once: a 1.6 MB gradient push or a 400 KB federated
	// snapshot otherwise grows it by doubling, copying everything written
	// so far a dozen times. Deterministic iteration is not required on
	// the wire; the decoder rebuilds the maps.
	w := wire.Writer{Buf: slices.Grow(dst, m.size())}
	w.U8(m.Kind)
	w.U64(uint64(m.Stamp))
	w.U32(m.Worker)
	w.U64(m.Round)
	w.U64(m.Step)
	w.U32(m.Shard)
	w.U32(m.Shards)
	w.U8(m.Policy)
	w.U64(uint64(m.Staleness))
	w.Bool(m.OK)
	w.Bool(m.Stale)
	w.Str(m.Err)
	w.U32(uint32(len(m.Names)))
	for _, name := range m.Names {
		w.Str(name)
	}
	w.U32(uint32(len(m.Vars)))
	for name, t := range m.Vars {
		w.Str(name)
		w.U32(uint32(tf.EncodedTensorLen(t)))
		w.Buf = tf.AppendTensor(w.Buf, t)
	}
	w.U8(m.Codec)
	w.U64(m.TopK)
	w.U32(uint32(len(m.Grads)))
	for name, blob := range m.Grads {
		w.Str(name)
		w.Bytes(blob)
	}
	// The federated fields are a trailing extension, written only when
	// one of them is set: frames of the worker/PS protocol stay
	// byte-identical to the pre-federated format, and the decoder reads
	// end-of-payload as all-zero. The elasticity flag is a second
	// trailing extension after the federated one — when it is set the
	// federated block is written too (the decoder reads the extensions
	// in order), and when both are clear neither is written, so
	// pre-elastic frames stay byte-identical as well.
	if m.Closed || m.Seed != 0 || len(m.Clients) > 0 || m.Evicted {
		w.Bool(m.Closed)
		w.U64(m.Seed)
		w.U32(uint32(len(m.Clients)))
		for _, id := range m.Clients {
			w.U32(id)
		}
	}
	if m.Evicted {
		w.U8(1)
	}
	return w.Buf
}

// errVars marks a frame that is well formed but whose tensors do not
// belong where its receiver keeps them: a name the receiver does not
// hold, or a dtype or shape that is not the held tensor's. The stream is
// still in step, so a server may answer it instead of hanging up.
var errVars = errors.New("dist: frame does not fit the receiver's variables")

// decode parses a payload produced by encode into tensors of its own.
func decode(payload []byte) (*message, error) { return decodeInto(payload, nil) }

// decodeInto parses a payload produced by encode. Compressed gradient
// blobs alias the payload; tensors are decoded out of it without a copy
// in between, and where they land is vars' to say (see NewLink): the
// frame's elements overwrite the receiver's tensor of that name, and
// m.Vars then holds the receiver's own tensors, those the frame named.
// The whole frame is checked first — framing, every name, every dtype,
// shape and length — and only then is the first element written: a
// frame that fails leaves every tensor behind vars as it was.
func decodeInto(payload []byte, vars func(name string) *tf.Tensor) (*message, error) {
	r := wire.NewReader(payload)
	m := &message{
		Kind:      r.U8(),
		Stamp:     int64(r.U64()),
		Worker:    r.U32(),
		Round:     r.U64(),
		Step:      r.U64(),
		Shard:     r.U32(),
		Shards:    r.U32(),
		Policy:    r.U8(),
		Staleness: int64(r.U64()),
		OK:        r.Bool(),
		Stale:     r.Bool(),
		Err:       r.Str(),
	}
	// A manifest entry is at least its length prefix; a variable or a
	// compressed gradient at least its two.
	for i, n := 0, r.Count(4); i < n; i++ {
		m.Names = append(m.Names, r.Str())
	}
	// The tensors wait, undecoded, until the rest of the frame has been
	// read and found whole.
	type pending struct {
		dst *tf.Tensor
		raw []byte
	}
	var fill []pending
	if n := r.Count(8); n > 0 {
		m.Vars = make(map[string]*tf.Tensor, n)
		for i := 0; i < n; i++ {
			name, raw := r.Str(), r.Bytes()
			if r.Err() != nil {
				break
			}
			if vars == nil {
				t, err := tf.DecodeTensor(raw)
				if err != nil {
					return nil, fmt.Errorf("dist: tensor %q: %w", name, err)
				}
				m.Vars[name] = t
				continue
			}
			dst := vars(name)
			if dst == nil {
				return nil, fmt.Errorf("%w: unknown variable %q", errVars, name)
			}
			if err := tf.CheckEncodedTensor(dst, raw); err != nil {
				return nil, fmt.Errorf("%w: tensor %q: %w", errVars, name, err)
			}
			if fill == nil {
				fill = make([]pending, 0, n)
			}
			m.Vars[name] = dst
			fill = append(fill, pending{dst, raw})
		}
	}
	m.Codec, m.TopK = r.U8(), r.U64()
	if n := r.Count(8); n > 0 {
		m.Grads = make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			name := r.Str()
			m.Grads[name] = r.Bytes()
		}
	}
	// The trailing extensions (see encode) are absent on frames of the
	// worker/PS protocol and on pre-elastic frames, which read
	// end-of-payload as all-zero.
	if r.Remaining() > 0 {
		m.Closed, m.Seed = r.Bool(), r.U64()
		for i, n := 0, r.Count(4); i < n; i++ {
			m.Clients = append(m.Clients, r.U32())
		}
	}
	if r.Remaining() > 0 {
		m.Evicted = r.Bool()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dist: message: %w", err)
	}
	for _, p := range fill {
		if err := tf.DecodeTensorInto(p.dst, p.raw); err != nil {
			return nil, err // unreachable: CheckEncodedTensor passed
		}
	}
	return m, nil
}

// wirePolicy flattens a policy into its two wire fields.
func wirePolicy(p ConsistencyPolicy) (uint8, int64) {
	p = p.normalize()
	return uint8(p.Kind), int64(p.Staleness)
}

// policyFromWire rebuilds a normalized policy from the wire fields.
func policyFromWire(kind uint8, staleness int64) ConsistencyPolicy {
	return ConsistencyPolicy{Kind: ConsistencyKind(kind), Staleness: int(staleness)}.normalize()
}

// Link is one end of a connection of the framed protocol — worker and
// shard, federated client and coordinator — and where the tensors of a
// received frame belong. Its frames are buffers it borrows, one frame
// at a time, from its owner's list (the package comment has the
// ownership rule).
type Link struct {
	conn   net.Conn
	frames *wire.Frames
	// hdr is the start of the frame being read: its header, then its
	// kind and stamp, the first stampEnd bytes of every frame.
	hdr [stampEnd]byte
	// sent is the stamp of the frame last sent.
	sent time.Duration
	// held is the frame last received while the message decoded from it
	// points into it (its Grads); it goes back to frames at the link's
	// next Send, Receive or Close.
	held []byte
	// vars is decodeInto's: nil on a link whose frames carry no tensors
	// worth keeping storage for.
	vars func(name string) *tf.Tensor
}

// NewLink wraps a fresh connection, with a list of frame buffers of its
// own. vars names the tensor a received frame's tensor of that name is
// decoded into, nil for a name the receiver does not hold; a nil vars
// decodes every tensor into a new one.
func NewLink(conn net.Conn, vars func(name string) *tf.Tensor) *Link {
	return NewLinkFrom(new(wire.Frames), conn, vars)
}

// NewLinkFrom is NewLink for a link that borrows its frame buffers from
// frames, the list of whoever owns the connection and its peers.
func NewLinkFrom(frames *wire.Frames, conn net.Conn, vars func(name string) *tf.Tensor) *Link {
	return &Link{conn: conn, frames: frames, vars: vars}
}

// Close closes the connection and gives back a frame the link holds.
func (l *Link) Close() error {
	l.release()
	return l.conn.Close()
}

// release gives back the frame a received message pointed into.
func (l *Link) release() {
	if l.held != nil {
		l.frames.Put(l.held)
		l.held = nil
	}
}

// Send writes m as a length-prefixed frame, charging meter its
// serialization (Meter.Frame) and stamping it with the resulting virtual
// time. It reports the frame's size with its header, so callers can
// account the wire volume a codec saves apart from the cost model.
func (l *Link) Send(meter sgx.Meter, m *Message) (int, error) {
	return l.flush(meter, l.encode(m))
}

// encode encodes m as a frame for flush, into a buffer of the frame's
// size borrowed from the link's list. m may point into the frame last
// received, which goes back only once m is encoded.
func (l *Link) encode(m *message) []byte {
	frame := m.encode(wire.StartFrame(l.frames.Get(4 + m.size())))
	l.release()
	return frame
}

// flush is Send for a message encode made into frame, which it gives
// back once it is written.
func (l *Link) flush(meter sgx.Meter, frame []byte) (int, error) {
	defer l.frames.Put(frame)
	meter.Frame(len(frame))
	// Stamp after charging serialization; the stamp sits at a fixed
	// offset right after the frame header and the kind byte.
	l.sent = meter.Clock().Now()
	binary.LittleEndian.PutUint64(frame[5:stampEnd], uint64(l.sent))
	if err := wire.SendFrame(l.conn, frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// Receive reads one frame from the connection and advances meter's
// clock to when it arrived (Meter.Arrive at the sender's stamp). The
// frame is read into a buffer of its exact size from the link's list,
// which gets it back once the message is decoded, or, when the
// message's Grads point into it, at the link's next Send, Receive or
// Close. A frame that is cut short or does not decode is dropped, not
// given back: its bytes are the peer's to size.
func (l *Link) Receive(meter sgx.Meter) (*Message, error) {
	if _, err := l.next(); err != nil {
		return nil, err
	}
	return l.rest(meter)
}

// stampEnd is where a frame's stamp ends: after the 4-byte header, the
// kind byte and the 8-byte stamp.
const stampEnd = 13

// next reads the start of the next frame, up to its stamp, and returns
// the stamp: what a receiver that serves its peers' frames in the order
// they were sent (ParameterServer.serve) needs before it reads the rest
// with rest. The start is read in one call where the transport has it,
// so next and rest together read in as many calls as a frame read whole
// would take. A frame too short to hold a stamp is refused unread.
func (l *Link) next() (time.Duration, error) {
	l.release()
	for got := 0; got < stampEnd; {
		k, err := l.conn.Read(l.hdr[got:])
		got += k
		if got >= 4 {
			if n := binary.LittleEndian.Uint32(l.hdr[:4]); n > wire.MaxFrame || n < stampEnd-4 {
				return 0, fmt.Errorf("dist: frame of %d bytes", n)
			}
		}
		if err != nil && got < stampEnd {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
	}
	return time.Duration(binary.LittleEndian.Uint64(l.hdr[5:stampEnd])), nil
}

// rest reads the rest of the frame next began, decodes it and advances
// meter's clock to when it arrived, as Receive does.
func (l *Link) rest(meter sgx.Meter) (*Message, error) {
	n := int(binary.LittleEndian.Uint32(l.hdr[:4]))
	payload := l.frames.Get(n)
	copy(payload, l.hdr[4:])
	if _, err := io.ReadFull(l.conn, payload[stampEnd-4:]); err != nil {
		return nil, err
	}
	m, err := decodeInto(payload, l.vars)
	if err != nil {
		return nil, err
	}
	if len(m.Grads) > 0 {
		l.held = payload
	} else {
		l.frames.Put(payload)
	}
	meter.Arrive(time.Duration(m.Stamp))
	return m, nil
}

// RoundTrip is the requesting side's exchange: send req, let half a LAN
// round trip pass on this node while it travels (the reply's stamp
// covers the rest), read the reply. It also reports the request's frame
// size, which stays non-zero when only the reply failed.
func (l *Link) RoundTrip(meter sgx.Meter, req *Message) (*Message, int, error) {
	n, err := l.Send(meter, req)
	if err != nil {
		return nil, 0, err
	}
	meter.Transit()
	resp, err := l.Receive(meter)
	return resp, n, err
}

// Exported wire API. internal/federated speaks the same framed
// protocol — vtime-stamped frames, the hello/manifest handshake idiom,
// the retryable-flag acks — with the msgFed* kinds, so the frame codec
// and its fuzz hardening are shared rather than reimplemented.
type Message = message

// Federated message kinds and the handshake/ack kinds the federated
// protocol reuses.
const (
	MsgAck       = msgAck
	MsgHello     = msgHello
	MsgManifest  = msgManifest
	MsgFedPoll   = msgFedPoll
	MsgFedRound  = msgFedRound
	MsgFedUnmask = msgFedUnmask
	MsgFedPush   = msgFedPush
	MsgFedSeeds  = msgFedSeeds
)

// FrameLen is at least the length of m's frame, header included, and at
// most the buffer a Link borrows to send it or read it into.
func FrameLen(m *Message) int { return 4 + m.size() }

// Refusal is both tiers' plain answer (no retryable flag) to a frame
// that a connection whose answered hello named id (greeted false: none
// is) may not send, or nil: the connection speaks only for id, so a
// hello in another name, or any other frame before a hello or in another
// name, is refused. tier and who word the refusal.
func Refusal(tier, who string, greeted bool, id uint32, msg *Message) *Message {
	switch {
	case msg.Kind == MsgHello && greeted && msg.Worker != id:
		return &Message{Kind: MsgManifest, Err: fmt.Sprintf("%s: this connection speaks for %s %d, not %d", tier, who, id, msg.Worker)}
	case msg.Kind != MsgHello && (!greeted || msg.Worker != id):
		return &Message{Kind: MsgAck, Err: fmt.Sprintf("%s: message kind %d for %s %d on a connection that has not said hello as it", tier, msg.Kind, who, msg.Worker)}
	}
	return nil
}

// Send frames and sends m on conn (see Link.Send) from a buffer of its
// own, which it drops.
func Send(conn net.Conn, clock *vtime.Clock, params sgx.Params, m *Message) (int, error) {
	return NewLink(conn, nil).Send(sgx.NewMeter(clock, params), m)
}

// Receive reads one frame from conn (see Link.Receive) into a buffer of
// its own, which the message's Grads alias and the caller may keep.
func Receive(conn net.Conn, clock *vtime.Clock, params sgx.Params) (*Message, error) {
	return NewLink(conn, nil).Receive(sgx.NewMeter(clock, params))
}
