package federated

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/securetf/securetf/internal/federated/ring"
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

// maskPRG expands a pair seed into the pair's mask stream for one
// round. A fresh round-bound derivation means revealing a pair's seed
// stream for round r (dropout recovery) discloses nothing about any
// other round.
func maskPRG(seed seccrypto.Key, round uint64) *seccrypto.PRG {
	return seccrypto.NewPRG(seccrypto.HKDF(seed[:], saltMask, fmt.Sprintf("round %d", round)))
}

// maskPair adds (or subtracts) a pair's round mask to payloads — the
// packed ring words of every variable in sorted manifest order, which is
// the order both ends of the pair, and the coordinator during dropout
// recovery, consume the pair's key stream in: consecutive CTR key
// stream, variable after variable.
func maskPair(payloads [][]byte, width int, seed seccrypto.Key, round uint64, add bool) {
	g := maskPRG(seed, round)
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
// bytes) below which they are folded in serially: starting and joining
// goroutines costs microseconds, which 256 KiB of AES-CTR-and-add
// amortises and less does not: one fresh pair stream over 256 KiB —
// HKDF, key schedule, AddStream at width 2 — takes ≈60 µs on a 2-vCPU
// Xeon with the SSE2 fold (≈110 µs with the SWAR one), still tens of
// times a goroutine's start and join. streamsPerWorker is the fewest
// streams a goroutine is started for: its partial sum has to be
// cleared first and added in afterwards, about the cost of one more
// stream, so with only a stream or two of its own it would not pay.
const (
	fanOutFloor      = 256 << 10
	streamsPerWorker = 8
)

// partials recycles the fan-out's private partial sums: each is one
// model's ring bytes, lives for the milliseconds an upload is masked
// (or a round unmasked), and few exist at once.
var partials sync.Pool

// maskStream is one pair's round mask and the sign it is applied with:
// added when add is set, subtracted otherwise.
type maskStream struct {
	seed seccrypto.Key
	add  bool
}

// applyPairMasks blinds one client's encoded update in place with the
// round's pairwise masks against each of peers other than itself — its
// neighbours in the round's pairing graph. payloads are the variables'
// packed ring words in sorted manifest order. Client self adds the pair
// mask when it is the lower id and subtracts it when it is the higher,
// so summed over any pair the masks cancel in the ring.
func applyPairMasks(payloads [][]byte, width int, secret []byte, self uint32, peers []uint32, round uint64) {
	streams := make([]maskStream, 0, len(peers))
	for _, peer := range peers {
		if peer != self {
			streams = append(streams, maskStream{pairSeed(secret, self, peer), self < peer})
		}
	}
	applyMasks(payloads, width, streams, round)
}

// applyMasks applies every stream's round mask to payloads in place: a
// client's pair masks when it uploads, and the coordinator's inverse of
// the masks the dead left in the accepted sum when it commits a round.
// Ring addition commutes, so when there is enough key stream to pay for
// it the streams are dealt to several goroutines, each summing its
// streams' masks into a private partial that is then added in — the
// result is the same bytes for any split.
func applyMasks(payloads [][]byte, width int, streams []maskStream, round uint64) {
	workers := 1
	if len(streams)*updateSize(payloads) >= fanOutFloor {
		workers = max(1, min(runtime.GOMAXPROCS(0), len(streams)/streamsPerWorker))
	}
	applyMasksSplit(payloads, workers, width, streams, round)
}

// updateSize is the ring bytes of one whole update.
func updateSize(payloads [][]byte) int {
	size := 0
	for _, p := range payloads {
		size += len(p)
	}
	return size
}

// applyMasksSplit is applyMasks at a given worker count ≥ 1.
func applyMasksSplit(payloads [][]byte, workers, width int, streams []maskStream, round uint64) {
	// Worker w takes every workers-th stream starting at w and masks
	// into dst.
	deal := func(w int, dst [][]byte) {
		for i := w; i < len(streams); i += workers {
			maskPair(dst, width, streams[i].seed, round, streams[i].add)
		}
	}
	if workers == 1 {
		deal(0, payloads)
		return
	}
	// A partial is the whole update as one vector: the pair stream runs
	// on across variable boundaries, so it needs no per-variable split.
	size := updateSize(payloads)
	sums := make([]*[]byte, workers-1)
	var wg sync.WaitGroup
	for w := range sums {
		sum, _ := partials.Get().(*[]byte)
		if sum == nil || cap(*sum) < size {
			fresh := make([]byte, size)
			sum = &fresh
		} else {
			*sum = (*sum)[:size]
			clear(*sum)
		}
		sums[w] = sum
		wg.Add(1)
		go func() {
			defer wg.Done()
			deal(w+1, [][]byte{*sum})
		}()
	}
	deal(0, payloads)
	wg.Wait()
	for _, sum := range sums {
		off := 0
		for _, p := range payloads {
			ring.Add(p, (*sum)[off:off+len(p)], width)
			off += len(p)
		}
		partials.Put(sum)
	}
}
