// Package federated implements the paper's §6.2 federated-learning use
// case as a first-class subsystem on top of the dist stack: a
// Coordinator that runs FedAvg round logic over hundreds to thousands
// of simulated clients on virtual clocks, with per-round deterministic
// client sampling, quorum rounds with straggler dropout, and
// pairwise-masked secure aggregation so the coordinator only ever
// observes the *sum* of client updates, never an individual one.
//
// # Round lifecycle
//
// Every exchange is client-initiated (poll → train → push → reveal), so
// the coordinator's serve loop never blocks on a peer. A round opens by
// sampling a cohort of ⌈SampleFraction·N⌉ clients with a deterministic
// PRG keyed from the job seed and round number. Sampled clients receive
// the current global variables, run LocalSteps of local SGD on their
// private shard, and upload the masked, codec-encoded delta. The round
// closes the moment Quorum uploads have been accepted — stragglers are
// not waited for; their late uploads are refused with the retryable
// Closed wire flag (mirroring the async Stale idiom), and they rejoin
// at the next round's poll. The refusal is load-bearing for privacy,
// not just latency: once the dead clients' pair keys for the round have
// been revealed, accepting a straggler's masked payload would let the
// coordinator unmask it.
//
// # Secure aggregation
//
// Cohort members i and j share a pair seed derived (HKDF) from a cohort
// secret the coordinator never holds. Each pair expands the seed's
// round key (HKDF) through the deterministic AES-CTR PRG into mask
// words over the codec's integer ring; the lower-id client adds the
// mask to its encoded update, the higher-id one subtracts it, so the
// masks cancel exactly in the coordinator's ring sum.
//
// A member pairs only with its neighbours in the round's pairing graph
// (Bell et al., CCS 2020), not with the whole cohort as in Bonawitz et
// al. (CCS 2017): the Harary graph H_{d,n} over the cohort of n laid on
// a ring in an order drawn from the round's pattern seed, each member
// joined to its ⌊d/2⌋ nearest ring neighbours on either side. The degree
// d is the larger of 2⌈log₂ n⌉ and n − Quorum + 1, rounded up to even
// and capped at n−1 — a cohort of 64 at quorum 51 pairs at 14, one of up
// to 7 is the complete graph — and travels in the assignment's Step; a
// client refuses a degree below min(n−1, 2⌈log₂ n⌉). H_{d,n} is
// d-connected, and d exceeds n − Quorum, the most members a round can
// lose. So the coordinator still learns only the sum of the survivors'
// updates as long as the dead and the clients colluding with it number
// fewer than d (the complete graph tolerated n−2): without them the
// honest survivors' masks stay tied together.
//
// Clients that were sampled but missed the quorum leave their pairwise
// masks uncancelled; each survivor with a dead neighbour reveals its
// round keys, not seeds, for exactly its dead neighbours (and refuses a
// request for all of its neighbours, which would strip its whole mask),
// the coordinator refuses a reveal that names any other member or
// misses one, and it re-expands those masks and subtracts them when
// every survivor it asked has revealed, so the quorum sum is
// well-defined again. The coordinator learns only masks of updates it
// never received. Bonawitz's self-mask, and the Shamir shares that let
// the survivors reconstruct exactly one of a client's two masks, are
// not implemented: the defence against a late straggler whose pair keys
// were revealed is still the coordinator's refusal of its upload.
//
// All mask arithmetic happens post-quantization in the codec's integer
// ring — ℤ/2⁶⁴, or ℤ/2¹⁶ for int8 — so cancellation is bit-exact: the
// masked aggregate is identical to the unmasked one, which the sum-only
// property test pins. An update has one representation from quantizer to
// accumulator: the packed little-endian ring words of its wire payload.
// The client quantizes each variable straight into its upload blob and
// masks it there; a pair's mask is never a vector, only the pair's
// AES-CTR key stream — consecutive over the variables in sorted manifest
// order, fresh per round — pulled through a 4 KiB chunk and added or
// subtracted in place by internal/federated/ring, four 16-bit lanes per
// 64-bit operation for int8. Because ring addition commutes, a list of
// streams with enough key stream to pay for it is dealt to a few
// blocks on internal/par, each summing into a private partial (same
// bytes for any split).
// The coordinator validates every variable's header against the
// manifest first, then adds the received payload bytes into a packed
// accumulator; when the round commits it subtracts every
// survivor×dead-neighbour stream the reveals named through the same
// fan-out that masks an upload. Only the committed sum is ever decoded
// back to floats.
//
// # Codec interaction
//
// The uplink codec — a dist.Compression policy, the training push
// path's own type — quantizes each client's model delta into ring words:
// fixed-point int64 words (CompressNone), int8 steps of the public clip
// bound DefaultClip (CompressInt8, 2-byte ring — the quorum is bounded
// so the int16 sum cannot overflow), or fixed-point words at a
// per-round pseudo-random coordinate pattern (CompressTopK). The top-k
// pattern is derived from the round's pattern seed by every cohort
// member and the coordinator alike, because pairwise masks only cancel
// if every pair masks the same coordinates — and it costs no index
// bytes on the wire. Quantization and sparsification mass is carried in
// per-client error-feedback residuals, committed only when an upload is
// acked as accepted; a refused round leaves them untouched.
//
// # Shared with the training worker
//
// A client's local training is a dist.Replica — the worker's session,
// minibatch schedule and loss-and-gradients run, restarted at step 0
// every round — updated in place by Replica.ApplySGD, and both ends of
// every connection are a dist.Link. The worker holds its replica's
// session for life; a client holds one of its plan's sessions only for
// a round's local steps, and its round buffers, from the list of the
// Turnstile it takes turns at, only from the assignment to the round's
// end for it. Who owns which buffer, and until
// when, is internal/tf/dist's rule ("Who owns what" in its package
// comment) and is not restated here.
package federated

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/securetf/securetf/internal/seccrypto"
)

// Domain-separation salts of every PRG/HKDF derivation in the
// subsystem. Sampling and patterns derive from the coordinator's job
// seed, the pairing graph from the round's pattern seed; pair seeds and
// masks derive from the cohort secret.
const (
	saltSample  = "securetf-fed-sample"
	saltPattern = "securetf-fed-pattern"
	saltPair    = "securetf-fed-pair"
	saltMask    = "securetf-fed-mask"
	saltGraph   = "securetf-fed-graph"
)

// trainingCompleteErr is the poll refusal that ends a client's run
// cleanly: the configured number of rounds has been committed.
const trainingCompleteErr = "federated: training complete"

// pollInterval is the virtual time a client waits between polls when it
// has no work (not sampled, or the round is closing).
const pollInterval = 10 * time.Millisecond

// stepCost is the virtual compute time charged per local SGD step.
const stepCost = 2 * time.Millisecond

// jobKey derives a PRG key from the job seed for one purpose (salt) and
// round, so sampling and pattern streams are domain-separated and
// deterministic given (seed, round).
func jobKey(seed int64, salt string, round uint64) seccrypto.Key {
	var ikm [8]byte
	binary.LittleEndian.PutUint64(ikm[:], uint64(seed))
	return seccrypto.HKDF(ikm[:], salt, fmt.Sprintf("round %d", round))
}

// roundCohort samples the round's client cohort: a uniform `sampled`
// -subset of [0, population), sorted ascending. Deterministic given
// (seed, round) — the coordinator and any test harness agree without
// communication.
func roundCohort(seed int64, round uint64, population, sampled int) []uint32 {
	g := seccrypto.NewPRG(jobKey(seed, saltSample, round))
	perm := g.Perm(population)
	ids := make([]uint32, sampled)
	for i := 0; i < sampled; i++ {
		ids[i] = uint32(perm[i])
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// roundPatternSeed derives the round's top-k pattern seed, handed to
// the cohort in the round assignment frame.
func roundPatternSeed(seed int64, round uint64) uint64 {
	return seccrypto.NewPRG(jobKey(seed, saltPattern, round)).Uint64()
}
