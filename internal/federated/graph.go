package federated

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/securetf/securetf/internal/seccrypto"
)

// maskDegree is the degree of a round's pairing graph for a cohort of
// n under a quorum: at least 2⌈log₂ n⌉ (Bell et al., CCS 2020) and more
// than the n − quorum members a round can lose, rounded up to even, and
// the complete graph (Bonawitz et al., CCS 2017) once that reaches n−1.
func maskDegree(n, quorum int) int {
	d := max(logDegree(n), n-quorum+1)
	return min(n-1, d+d%2)
}

// logDegree is 2⌈log₂ n⌉, the least degree a client masks with unless
// the cohort is smaller.
func logDegree(n int) int { return 2 * bits.Len(uint(n-1)) }

// checkDegree is a client's guard on the degree its assignment names:
// a coordinator that thins the graph below 2⌈log₂ n⌉ (or names a
// degree no graph on n members has) is refused.
func checkDegree(n, d int) error {
	switch lo := min(n-1, logDegree(n)); {
	case d < lo || d > n-1:
		return fmt.Errorf("federated: pairing degree %d for a cohort of %d, want %d to %d", d, n, lo, n-1)
	case d%2 == 1 && n%2 == 1:
		return fmt.Errorf("federated: no %d-regular pairing graph on %d members", d, n)
	}
	return nil
}

// pairingGraph is a round's Harary graph H_{d,n} over its cohort: the
// members are laid on a ring in an order drawn from the round's pattern
// seed, and each pairs with the ⌊d/2⌋ nearest members on either side
// and, for odd d (even n), the one opposite. H_{d,n} is d-connected,
// so removing fewer than d members leaves the rest connected, and for
// d = n−1 it is the complete graph.
type pairingGraph struct {
	pos []int // pos[i] is the ring place of the cohort's i-th member
	d   int
}

// newPairingGraph draws a round's ring order from its pattern seed,
// which the coordinator and every cohort member hold.
func newPairingGraph(n int, patternSeed uint64, d int) pairingGraph {
	var ikm [8]byte
	binary.LittleEndian.PutUint64(ikm[:], patternSeed)
	g := seccrypto.NewPRG(seccrypto.HKDF(ikm[:], saltGraph, "ring"))
	return pairingGraph{pos: g.Perm(n), d: d}
}

// adjacent reports whether the cohort's i-th and j-th members pair.
func (g pairingGraph) adjacent(i, j int) bool {
	n := len(g.pos)
	gap := (g.pos[i] - g.pos[j] + n) % n
	gap = min(gap, n-gap)
	return gap != 0 && (gap <= g.d/2 || g.d%2 == 1 && 2*gap == n)
}

// neighbours returns the cohort's i-th member's neighbours, in cohort
// order.
func (g pairingGraph) neighbours(cohort []uint32, i int) []uint32 {
	peers := make([]uint32, 0, g.d)
	for j, id := range cohort {
		if g.adjacent(i, j) {
			peers = append(peers, id)
		}
	}
	return peers
}
