package federated

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
)

// wideModel is a two-layer classifier ([n,40] → 67 → 3) whose manifest
// (b1 67, b2 3, w1 2680, w2 201 coordinates) is built to be awkward for
// a packed mask kernel: no variable but w1 is a multiple of four 16-bit
// lanes, every variable after b1 starts at a key-stream offset that is
// not word-aligned, and w1 alone spans more than one 4 KiB stream chunk
// under either ring width.
func wideModel(seed int64) dist.Model {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 40})
	y := g.Placeholder("y", tf.Float32, tf.Shape{-1, 3})
	w1 := g.Variable("w1", tf.GlorotUniform(tf.Shape{40, 67}, 40, 67, seed))
	b1 := g.Variable("b1", tf.NewTensor(tf.Float32, tf.Shape{67}))
	h := g.Relu(g.BiasAdd(g.MatMul(x, w1), b1))
	w2 := g.Variable("w2", tf.GlorotUniform(tf.Shape{67, 3}, 67, 3, seed+1))
	b2 := g.Variable("b2", tf.NewTensor(tf.Float32, tf.Shape{3}))
	logits := g.BiasAdd(g.MatMul(h, w2), b2)
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, y))
	return dist.Model{Graph: g, X: x, Y: y, Loss: loss, Logits: logits}
}

// wideShard is tinyShard at wideModel's input width.
func wideShard(n int, seed int64) (*tf.Tensor, *tf.Tensor) {
	xs := tf.RandNormal(tf.Shape{n, 40}, 0.5, seed)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		labels[i] = cls
		xs.Floats()[i*40+cls] += 2
	}
	return xs, tf.OneHot(labels, 3)
}

// TestFederatedWireGoldens pins the data path byte for byte: the sha256
// of every accepted upload blob (in (round, client, variable) order) and
// of the final variables of a seeded Turnstile job on wideModel, under
// all three codecs, with one client dropping out of every round after
// masking so the seed-reveal path runs. The digests were recorded at
// commit 9af30fe, when every coordinate was a widened uint64 and every
// pair mask a materialised vector; the packed ring kernels must
// reproduce them exactly.
func TestFederatedWireGoldens(t *testing.T) {
	cases := []struct {
		name          string
		codec         dist.Compression
		uploads, vars string
	}{
		{"none", dist.NoCompression(),
			"f55958d2d676215bf2068dc8fac00778aa4b32b3f3d04722446483d1d71129ee",
			"46a70c16ac123fb0b6e975ce8f7c3372169d04b6a9ab38d953244e9efd6e15c3"},
		{"int8(clip=0.25)", dist.Int8Compression(), // the ring codec's DefaultClip
			"1eea53ba67a97e5eb149ce8230c83e9a0b41b45343528e172e990d861905ece0",
			"8324969e00bb90c82d49dfb526010f8d514169523c29f608516c61385ddbefb7"},
		{"topk(f=0.5)", dist.TopKCompression(0.5),
			"a7edc5a01ee2b3f592d3c3b365ec242294ddc8e8ef08a4132f540aef7a5b087c",
			"6bbb4b95eae7e753dcb484b2e0808f59bf693e3257d5adcf87c1e57c255f957a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const population, rounds = 5, 3
			blobs := make(map[string][]byte)
			finals, stats, _, _ := runJob(t, jobSpec{
				population: population, sampleFrac: 1, quorum: population - 1, rounds: rounds,
				codec: tc.codec, seed: 29, turnstile: true, model: wideModel, shard: wideShard,
				maxIdle: 1_000_000,
				drop:    func(id int, round uint64) bool { return id == int((round+2)%population) },
				tap: func(round uint64, client uint32, name string, payload []byte) {
					blobs[payloadKey(round, client, name)] = append([]byte(nil), payload...)
				},
			})
			if stats.Rounds != rounds || stats.Reveals != (population-1)*rounds {
				t.Fatalf("committed %d rounds with %d reveals, want %d and %d",
					stats.Rounds, stats.Reveals, rounds, (population-1)*rounds)
			}
			if want := rounds * (population - 1) * 4; len(blobs) != want {
				t.Fatalf("tapped %d upload blobs, want %d", len(blobs), want)
			}
			keys := make([]string, 0, len(blobs))
			for key := range blobs {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			h := sha256.New()
			for _, key := range keys {
				h.Write([]byte(key))
				h.Write(blobs[key])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.uploads {
				t.Errorf("upload blobs hash to %s, golden %s", got, tc.uploads)
			}
			names := make([]string, 0, len(finals))
			for name := range finals {
				names = append(names, name)
			}
			sort.Strings(names)
			h.Reset()
			for _, name := range names {
				h.Write([]byte(name))
				for _, f := range finals[name].Floats() {
					var b [4]byte
					binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
					h.Write(b[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.vars {
				t.Errorf("final variables hash to %s, golden %s", got, tc.vars)
			}
		})
	}
}

// TestFederatedTimelineGolden pins the discrete-event timeline of a
// seeded Turnstile job: the sha256 of the coordinator's Stats, every
// client's ClientStats, every client's final virtual clock and the
// coordinator's, to the nanosecond. The job samples 6 of 10 clients a
// round under int8, delays clients 8 and 9 past every quorum and drops
// one cohort member a round after it has masked, so polls, pushes,
// refusals, reveals and rejoins all take turns. A change to who computes
// when may make a run faster; it may not move one turn.
func TestFederatedTimelineGolden(t *testing.T) {
	const population, sampled, seed, rounds = 10, 6, 5, 4
	const golden = "93dad647a0f1bcde7b1665d6c407ee80ad7bd213e6058f2dde2c2959d3125801"
	_, stats, clientStats, clocks := runJob(t, jobSpec{
		population: population, sampleFrac: float64(sampled) / population, quorum: 3, rounds: rounds,
		codec: dist.Int8Compression(), seed: seed, turnstile: true,
		delay: func(id int, round uint64) time.Duration {
			if id >= population-2 {
				return 15 * time.Millisecond
			}
			return 0
		},
		drop: func(id int, round uint64) bool {
			return id == int(roundCohort(seed, round, population, sampled)[0])
		},
	})
	var rejoins int
	for _, cs := range clientStats {
		rejoins += cs.Rejoins
	}
	if stats.Rounds != rounds || stats.Refusals == 0 || stats.Reveals == 0 || rejoins != rounds {
		t.Fatalf("the job does not take every kind of turn: %+v, %d rejoins", stats, rejoins)
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%+v\n%+v\n%v\n", stats, clientStats, clocks))
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("the timeline hashes to %s, golden %s\ncoordinator %+v\nclients %+v\nclocks %v",
			got, golden, stats, clientStats, clocks)
	}
}
