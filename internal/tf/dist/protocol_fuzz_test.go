package dist

import (
	"testing"

	"github.com/securetf/securetf/internal/tf"
)

// fuzzSeedFrames builds the seed corpus from real protocol frames: the
// handshake pair, a pull, a variable snapshot, a gradient push and both
// ack shapes — every message kind the trainer actually exchanges.
func fuzzSeedFrames() [][]byte {
	tensor := tf.Fill(tf.Shape{4, 3}, 0.25)
	int8Blob, _, err := Int8Compression().compress(tensor, nil)
	if err != nil {
		panic(err)
	}
	topkBlob, _, err := TopKCompression(0.25).compress(tf.Fill(tf.Shape{3}, -1), nil)
	if err != nil {
		panic(err)
	}
	int8Codec, int8Frac := Int8Compression().Wire()
	topkCodec, topkFrac := TopKCompression(0.05).Wire()
	frames := []*message{
		{Kind: msgHello, Worker: 3, Shard: 1, Shards: 2, Policy: 1, Staleness: 8},
		{Kind: msgHello, Worker: 4, Shards: 1, Codec: topkCodec, TopK: topkFrac},
		{Kind: msgManifest, Shard: 1, Shards: 2, Policy: 1, Staleness: 8, OK: true, Names: []string{"b", "w"},
			Codec: int8Codec, TopK: int8Frac},
		{Kind: msgPull, Worker: 2},
		{Kind: msgVars, OK: true, Round: 7, Vars: map[string]*tf.Tensor{"w": tensor}},
		{Kind: msgPush, Worker: 1, Round: 7, Step: 42, Vars: map[string]*tf.Tensor{"w": tensor, "b": tf.Fill(tf.Shape{3}, -1)}},
		// Compressed pushes: the frames a lossy-codec cluster actually
		// exchanges, one per codec, so the fuzzer starts at the nested
		// blob boundaries.
		{Kind: msgPush, Worker: 1, Round: 7, Step: 42, Grads: map[string][]byte{"w": int8Blob}},
		{Kind: msgPush, Worker: 2, Round: 9, Step: 3, Grads: map[string][]byte{"b": topkBlob}},
		{Kind: msgAck, OK: true},
		{Kind: msgAck, OK: false, Stale: true, Err: "dist: push exceeds the staleness bound"},
		// Federated frames: a round assignment with a sampled cohort and
		// pattern seed, a masked update (opaque integer-ring payload in
		// Grads), a round refusal, an unmask request and a seed reveal —
		// the frames the secure-aggregation rounds actually exchange.
		{Kind: msgFedPoll, Worker: 17, Round: 3},
		{Kind: msgFedRound, OK: true, Round: 4, Seed: 0xfeedc0dedeadbeef,
			Clients: []uint32{0, 3, 5, 17}, Vars: map[string]*tf.Tensor{"w": tensor}},
		{Kind: msgFedRound, OK: true, Closed: true},
		{Kind: msgFedPush, Worker: 5, Round: 4, Grads: map[string][]byte{
			"w": {3, 8, 2, 0, 0, 0, 0x5a, 0xa5, 0x01, 0xff, 0x7f, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x12, 0x34, 0x56, 0x78},
		}},
		{Kind: msgAck, OK: false, Closed: true, Err: "federated: round 4 closed at quorum"},
		{Kind: msgFedUnmask, OK: true, Round: 4, Clients: []uint32{3}},
		{Kind: msgFedSeeds, Worker: 5, Round: 4, Grads: map[string][]byte{"3": make([]byte, 32)}},
		// Elastic frames: the barrier-shrink rejection of an evicted
		// worker's push and the rejoin-acknowledging manifest, so the
		// fuzzer starts at the trailing-extension boundary.
		{Kind: msgAck, OK: false, Evicted: true, Err: "dist: worker evicted from the shrunk barrier"},
		{Kind: msgManifest, Shards: 1, OK: true, Evicted: true, Names: []string{"b", "w"}},
	}
	out := make([][]byte, len(frames))
	for i, m := range frames {
		out[i] = m.encode(nil)
	}
	return out
}

// fuzzMisfitFrames are well-formed frames whose tensors do not belong in
// the destinations FuzzFrameCodec decodes into ("w" a Float32 [4,3], "b"
// a Float32 [3]): a name the receiver does not hold, another dtype,
// another shape. (The short payload is every seed's truncation.) Each
// rides behind a tensor that does fit, which must not be written either.
func fuzzMisfitFrames() [][]byte {
	ints, err := tf.FromInts(tf.Shape{4, 3}, make([]int32, 12))
	if err != nil {
		panic(err)
	}
	fits := tf.Fill(tf.Shape{3}, 7)
	var out [][]byte
	for _, vars := range []map[string]*tf.Tensor{
		{"b": fits, "nobody's": tf.Fill(tf.Shape{4, 3}, 7)},
		{"b": fits, "w": ints},
		{"b": fits, "w": tf.Fill(tf.Shape{3, 4}, 7)},
	} {
		out = append(out, (&message{Kind: msgVars, OK: true, Vars: vars}).encode(nil))
	}
	return out
}

// FuzzFrameCodec fuzzes the length-prefixed frame decoder: truncated,
// oversized and bit-flipped payloads must produce an error, never a
// panic or an allocation driven by an attacker-controlled count. A
// payload that does decode must survive an encode/decode round trip —
// the decoder and encoder agree on the format. The same payload is
// also decoded into place, into tensors the receiver already holds:
// that succeeds only where decoding succeeds, then yields those tensors
// holding the decoded values, and otherwise leaves them untouched.
func FuzzFrameCodec(f *testing.F) {
	for _, frame := range append(fuzzSeedFrames(), fuzzMisfitFrames()...) {
		f.Add(frame)
		// Truncations and bit flips of real frames steer the fuzzer at
		// the interesting boundaries from the start.
		if len(frame) > 2 {
			f.Add(frame[:len(frame)/2])
			flipped := append([]byte(nil), frame...)
			flipped[len(flipped)-1] ^= 0x80
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decode(payload)
		held := map[string]*tf.Tensor{"w": tf.Fill(tf.Shape{4, 3}, -3), "b": tf.Fill(tf.Shape{3}, -3)}
		placed, perr := decodeInto(payload, func(name string) *tf.Tensor { return held[name] })
		if perr != nil {
			for name, dst := range held {
				if !tf.AllClose(dst, tf.Fill(dst.Shape(), -3), 0) {
					t.Fatalf("decoding into place failed (%v) and still wrote to %q", perr, name)
				}
			}
		}
		if err != nil {
			if perr == nil {
				t.Fatalf("a payload that does not decode (%v) decoded into place", err)
			}
			return
		}
		if perr == nil {
			for name, dst := range placed.Vars {
				if dst != held[name] || !tf.AllClose(dst, m.Vars[name], 0) {
					t.Fatalf("decoding into place left %q in another tensor or with other values than decoding", name)
				}
			}
		}
		// The count guards must have kept every decoded collection within
		// the physical payload: each manifest name costs ≥ 4 bytes, each
		// variable or compressed-gradient entry ≥ 8.
		if len(m.Names)*4 > len(payload) || len(m.Vars)*8 > len(payload) || len(m.Grads)*8 > len(payload) ||
			len(m.Clients)*4 > len(payload) {
			t.Fatalf("decoded %d names, %d vars, %d grads and %d clients out of a %d-byte payload",
				len(m.Names), len(m.Vars), len(m.Grads), len(m.Clients), len(payload))
		}
		reenc := m.encode(nil)
		back, err := decode(reenc)
		if err != nil {
			t.Fatalf("re-decoding an encoded message failed: %v", err)
		}
		if back.Kind != m.Kind || back.Round != m.Round || back.Step != m.Step ||
			back.Worker != m.Worker || back.OK != m.OK || back.Stale != m.Stale ||
			back.Policy != m.Policy || back.Staleness != m.Staleness || back.Err != m.Err ||
			back.Codec != m.Codec || back.TopK != m.TopK ||
			back.Closed != m.Closed || back.Seed != m.Seed || back.Evicted != m.Evicted {
			t.Fatalf("round trip changed the header: %+v vs %+v", m, back)
		}
		if len(back.Names) != len(m.Names) || len(back.Vars) != len(m.Vars) || len(back.Grads) != len(m.Grads) {
			t.Fatalf("round trip changed the payload: %d/%d names, %d/%d vars, %d/%d grads",
				len(back.Names), len(m.Names), len(back.Vars), len(m.Vars), len(back.Grads), len(m.Grads))
		}
		if len(back.Clients) != len(m.Clients) {
			t.Fatalf("round trip changed the client set: %d vs %d ids", len(back.Clients), len(m.Clients))
		}
		for i := range m.Clients {
			if back.Clients[i] != m.Clients[i] {
				t.Fatalf("round trip changed client id %d: %d vs %d", i, back.Clients[i], m.Clients[i])
			}
		}
	})
}
