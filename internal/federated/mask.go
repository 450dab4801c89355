package federated

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/securetf/securetf/internal/federated/ring"
	"github.com/securetf/securetf/internal/par"
	"github.com/securetf/securetf/internal/seccrypto"
)

// pairSeed derives the shared masking seed for the client pair (a, b)
// from the cohort secret. The derivation is symmetric in (a, b) — both
// ends of the pair compute the identical seed — and the coordinator
// never holds the cohort secret, so it cannot derive any pair's masks
// on its own.
func pairSeed(secret []byte, a, b uint32) seccrypto.Key {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return seccrypto.HKDF(secret, saltPair, fmt.Sprintf("pair %d %d", lo, hi))
}

// roundKey derives a pair's key for one round, all its mask is expanded
// from and what a survivor reveals for a dead neighbour: the derivation
// is one-way and bound to the round, so the key of round r discloses
// nothing of the seed or of any other round's mask.
func roundKey(seed seccrypto.Key, round uint64) seccrypto.Key {
	return seccrypto.HKDF(seed[:], saltMask, fmt.Sprintf("round %d", round))
}

// maskPair adds (or subtracts) the mask expanded from a pair's round key
// to payloads — the packed ring words of every variable in sorted
// manifest order, which is the order both ends of the pair, and the
// coordinator during dropout recovery, consume the key stream in:
// consecutive CTR key stream, variable after variable.
func maskPair(payloads [][]byte, width int, key seccrypto.Key, add bool) {
	g := seccrypto.NewPRG(key)
	for _, p := range payloads {
		if add {
			ring.AddStream(p, width, g)
		} else {
			ring.SubStream(p, width, g)
		}
	}
}

// When a list of mask streams is worth fanning out, from the size of
// the work alone. fanOutFloor is the key-stream volume (streams × update
// bytes) below which they are folded in serially: a handoff costs
// microseconds, and one fresh pair stream over 256 KiB — HKDF, key
// schedule, AddStream at width 2 — takes ≈60 µs on a 2-vCPU Xeon with
// the SSE2 fold (≈110 µs with the SWAR one). streamsPerWorker is the
// fewest streams a block is dealt: its partial sum costs about one more
// stream to clear and add in.
const (
	fanOutFloor      = 256 << 10
	streamsPerWorker = 8
)

// maskStream is one pair's round key and the sign its mask is applied
// with: added when add is set, subtracted otherwise.
type maskStream struct {
	key seccrypto.Key
	add bool
}

// pairSeeds are one client's pair seeds, each derived once, for the
// peers it has met: a pair's seed does not depend on the round, and the
// client holds the cohort secret it comes from anyway.
type pairSeeds struct {
	secret []byte
	self   uint32
	known  map[uint32]seccrypto.Key
}

// seed is the pair seed of self and peer.
func (s *pairSeeds) seed(peer uint32) seccrypto.Key {
	key, ok := s.known[peer]
	if !ok {
		if s.known == nil {
			s.known = make(map[uint32]seccrypto.Key)
		}
		key = pairSeed(s.secret, s.self, peer)
		s.known[peer] = key
	}
	return key
}

// mask blinds one client's encoded update in place with the round's
// pairwise masks against each of peers other than itself — its
// neighbours in the round's pairing graph. payloads are the variables'
// packed ring words in sorted manifest order. Client self adds the pair
// mask when it is the lower id and subtracts it when it is the higher,
// so summed over any pair the masks cancel in the ring.
func (s *pairSeeds) mask(payloads [][]byte, width int, peers []uint32, round uint64) {
	streams := make([]maskStream, 0, len(peers))
	for _, peer := range peers {
		if peer != s.self {
			streams = append(streams, maskStream{roundKey(s.seed(peer), round), s.self < peer})
		}
	}
	applyMasks(payloads, width, streams)
}

// applyMasks applies every stream's mask to payloads in place: a
// client's pair masks when it uploads, and the coordinator's inverse of
// the masks the dead left in the accepted sum when it commits a round.
// Ring addition commutes, so when there is enough key stream to pay for
// it the streams are dealt to several blocks, each summing its streams'
// masks into a private partial that is then added in — the result is
// the same bytes for any split. The split pays: folded on one goroutine,
// fed-round ran 0.93× the ops a second, slower in 10 of 10 seed-1 pairs
// on 2 vCPUs.
func applyMasks(payloads [][]byte, width int, streams []maskStream) {
	workers := 1
	if len(streams)*updateSize(payloads) >= fanOutFloor {
		workers = max(1, min(runtime.GOMAXPROCS(0), len(streams)/streamsPerWorker))
	}
	applyMasksSplit(payloads, workers, width, streams)
}

// updateSize is the ring bytes of one whole update.
func updateSize(payloads [][]byte) int {
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	return size
}

// applyMasksSplit is applyMasks dealt over workers ≥ 1 blocks of
// par.Run: block w takes every workers-th stream from w, block 0 into
// payloads and every other into a partial sum of its own, which is then
// added in.
func applyMasksSplit(payloads [][]byte, workers, width int, streams []maskStream) {
	f := folds.Get()
	f.payloads, f.size, f.width, f.streams = payloads, updateSize(payloads), width, streams
	f.sums = slices.Grow(f.sums[:0], workers-1)[:workers-1]
	par.Run(f, workers, workers)
	for _, sum := range f.sums {
		off := 0
		for _, p := range payloads {
			ring.Add(p, sum[off:off+len(p)], width)
			off += len(p)
		}
	}
	f.payloads, f.streams = nil, nil
	folds.Put(f)
}

// maskFold is one applyMasksSplit. Block w ≥ 1 folds into sums[w-1],
// the whole update as one vector (the pair stream runs on across
// variable boundaries), which folds keeps for the next fan-out.
type maskFold struct {
	payloads    [][]byte
	sums        [][]byte
	size, width int
	streams     []maskStream
}

var folds = make(par.Free[maskFold], 8) // each keeps model-sized partials

func (f *maskFold) Block(w int) {
	dst := f.payloads
	if w > 0 {
		f.sums[w-1] = slices.Grow(f.sums[w-1][:0], f.size)[:f.size]
		dst = [][]byte{f.sums[w-1]}
		clear(dst[0])
	}
	for i := w; i < len(f.streams); i += len(f.sums) + 1 {
		maskPair(dst, f.width, f.streams[i].key, f.streams[i].add)
	}
}
