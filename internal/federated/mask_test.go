package federated

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/federated/ring"
	"github.com/securetf/securetf/internal/seccrypto"
)

func TestPairSeedSymmetric(t *testing.T) {
	secret := []byte("cohort secret")
	if pairSeed(secret, 3, 11) != pairSeed(secret, 11, 3) {
		t.Fatal("pair seed is not symmetric in the pair")
	}
	if pairSeed(secret, 3, 11) == pairSeed(secret, 3, 12) {
		t.Fatal("distinct pairs share a seed")
	}
	if pairSeed(secret, 3, 11) == pairSeed([]byte("other"), 3, 11) {
		t.Fatal("distinct secrets share a pair seed")
	}
}

func TestMaskRoundSeparation(t *testing.T) {
	seed := pairSeed([]byte("secret"), 0, 1)
	a, b := make([]byte, 64), make([]byte, 64)
	seccrypto.NewPRG(roundKey(seed, 4)).Read(a)
	seccrypto.NewPRG(roundKey(seed, 5)).Read(b)
	if bytes.Equal(a, b) {
		t.Fatal("distinct rounds produced identical mask streams")
	}
}

// TestRevealedKeyIsRoundBound: the key a survivor reveals for a dead
// neighbour in round r is not the pair's seed, and it cancels the pair's
// round r mask and not its round r+1 mask, so a coordinator that kept it
// cannot strip the pair's mask in a later round.
func TestRevealedKeyIsRoundBound(t *testing.T) {
	const self, peer, r = 3, 11, 7
	seed := pairSeed(testSecret, self, peer)
	revealed := roundKey(seed, r)
	if revealed == seed {
		t.Fatal("the revealed key is the pair's seed")
	}
	for _, width := range []int{2, 8} {
		for _, round := range []uint64{r, r + 1} {
			update := mlpUpdate(width)
			applyPairMasks(update, width, testSecret, self, []uint32{peer}, round)
			// self is the lower id, so it added the mask; the coordinator
			// subtracts what the revealed key expands to.
			applyMasks(update, width, []maskStream{{revealed, false}})
			cancelled := true
			for _, p := range update {
				cancelled = cancelled && !slices.ContainsFunc(p, func(b byte) bool { return b != 0 })
			}
			if cancelled != (round == r) {
				t.Errorf("width %d: round %d's key applied to round %d's mask: cancelled = %v", width, r, round, cancelled)
			}
		}
	}
}

// TestMaskCancellation is the heart of secure aggregation: summed over
// the full cohort, the pairwise masks cancel bit-exactly in the ring,
// for both ring widths and any walk over multiple variables.
func TestMaskCancellation(t *testing.T) {
	secret := []byte("cohort secret")
	cohort := []uint32{2, 5, 7, 11, 30}
	names := []string{"b", "w"}
	sizes := map[string]int{"b": 3, "w": 17}
	for _, width := range []int{2, 8} {
		// Packed payloads per client, in names order.
		raw := make(map[uint32][][]byte)
		masked := make(map[uint32][][]byte)
		for ci, id := range cohort {
			for _, name := range names {
				words := make([]uint64, sizes[name])
				for i := range words {
					words[i] = uint64(int64((ci+1)*(i+3)) * 7)
				}
				raw[id] = append(raw[id], packWords(width, words))
				masked[id] = append(masked[id], packWords(width, words))
			}
			applyPairMasks(masked[id], width, secret, id, cohort, 9)
		}
		for _, id := range cohort {
			blinded := false
			for n := range names {
				if !bytes.Equal(masked[id][n], raw[id][n]) {
					blinded = true
				}
			}
			if !blinded {
				t.Fatalf("width %d: client %d's masked words equal its raw words", width, id)
			}
		}
		for n, name := range names {
			for i := 0; i < sizes[name]; i++ {
				var rawSum, maskedSum uint64
				for _, id := range cohort {
					rawSum += wordAt(raw[id][n], width, i)
					maskedSum += wordAt(masked[id][n], width, i)
				}
				if ringFor(width, rawSum) != ringFor(width, maskedSum) {
					t.Fatalf("width %d: masks did not cancel at %s[%d]: %#x vs %#x",
						width, name, i, maskedSum, rawSum)
				}
			}
		}
	}
}

// TestDropoutRecovery drops cohort members after masking and checks
// that subtracting the dead clients' masks — re-derived from the seeds
// the survivors reveal — restores the survivors' exact ring sum, and
// that the coordinator's way of doing it, every survivor×dead stream at
// once dealt over 1, 2 or 7 workers, is byte for byte the same as
// subtracting reveal by reveal. On a sparse pairing graph each survivor
// reveals only its dead neighbours' seeds, and the sum comes out the
// same.
func TestDropoutRecovery(t *testing.T) {
	t.Run("sparse", testSparseDropoutRecovery)
	cohort := cohortOf(12)
	dead := []uint32{4, 9, 10}
	const round = 3
	for _, width := range []int{2, 8} {
		acc, want := mlpUpdate(width), mlpUpdate(width)
		for _, id := range cohort {
			raw := mlpUpdate(width)
			for n, p := range raw {
				for i := range p {
					p[i] = byte(int(id)*31 + i*7 + n)
				}
			}
			masked := cloneUpdate(raw)
			applyPairMasks(masked, width, testSecret, id, cohort, round)
			if slices.Contains(dead, id) {
				continue // dropped before upload
			}
			for n := range raw {
				ring.Add(want[n], raw[n], width)
				ring.Add(acc[n], masked[n], width)
			}
		}
		// Each survivor reveals its pair seed with each dead client.
		var streams []maskStream
		serial := cloneUpdate(acc)
		for _, id := range cohort {
			if slices.Contains(dead, id) {
				continue
			}
			var revealed []maskStream
			for _, d := range dead {
				revealed = append(revealed, maskStream{roundKey(pairSeed(testSecret, id, d), round), id > d})
			}
			applyMasksSplit(serial, 1, width, revealed)
			streams = append(streams, revealed...)
		}
		for n := range want {
			if !bytes.Equal(serial[n], want[n]) {
				t.Fatalf("width %d: per-reveal recovery of variable %d differs from the survivors' sum", width, n)
			}
		}
		for _, workers := range []int{1, 2, 7} {
			deferred := cloneUpdate(acc)
			applyMasksSplit(deferred, workers, width, streams)
			for n := range want {
				if !bytes.Equal(deferred[n], serial[n]) {
					t.Fatalf("width %d: deferred recovery over %d workers differs from per-reveal at variable %d", width, workers, n)
				}
			}
		}
	}
}

func cloneUpdate(update [][]byte) [][]byte {
	out := make([][]byte, len(update))
	for n, p := range update {
		out[n] = bytes.Clone(p)
	}
	return out
}

// testSparseDropoutRecovery is fed-round's shape: 64 members pairing at
// degree 14, 13 of them dead — seeded sets, and the 13 nearest ring
// places of one member, which leaves it a single live neighbour.
func testSparseDropoutRecovery(t *testing.T) {
	const n, d, round = 64, 14, 5
	cohort := cohortOf(n)
	g := newPairingGraph(n, roundPatternSeed(8, round), d)
	deadSets := [][]bool{removeNearest(g, 17, d-1)}
	prg := seccrypto.NewPRG(seccrypto.HKDF([]byte("dead"), "test", "sets"))
	for range 4 {
		dead := make([]bool, n)
		for _, i := range prg.Perm(n)[:d-1] {
			dead[i] = true
		}
		deadSets = append(deadSets, dead)
	}
	for _, width := range []int{2, 8} {
		// wideModel's manifest: no variable is whole 64-bit words of int8.
		zeros := func() [][]byte {
			var payloads [][]byte
			for _, coords := range []int{67, 3, 2680, 201} {
				payloads = append(payloads, make([]byte, coords*width))
			}
			return payloads
		}
		raw, masked := make([][][]byte, n), make([][][]byte, n)
		for i, id := range cohort {
			raw[i] = zeros()
			for v, p := range raw[i] {
				for k := range p {
					p[k] = byte(int(id)*31 + k*7 + v)
				}
			}
			masked[i] = cloneUpdate(raw[i])
			applyPairMasks(masked[i], width, testSecret, id, g.neighbours(cohort, i), round)
		}
		for set, dead := range deadSets {
			want, acc := zeros(), zeros()
			var streams []maskStream
			for i, id := range cohort {
				if dead[i] {
					continue
				}
				for v := range raw[i] {
					ring.Add(want[v], raw[i][v], width)
					ring.Add(acc[v], masked[i][v], width)
				}
				for j, peer := range cohort {
					if dead[j] && g.adjacent(i, j) {
						streams = append(streams, maskStream{roundKey(pairSeed(testSecret, id, peer), round), id > peer})
					}
				}
			}
			applyMasks(acc, width, streams)
			for v := range want {
				if !bytes.Equal(acc[v], want[v]) {
					t.Fatalf("width %d, dead set %d: variable %d after %d revealed streams differs from the survivors' sum",
						width, set, v, len(streams))
				}
			}
		}
	}
}

func ringFor(width int, w uint64) uint64 {
	if width == 2 {
		return w & 0xffff
	}
	return w
}

// TestMaskFanOutInvariant: an upload masked by 1, 2 or 7 goroutines — and
// by whatever applyPairMasks picks on this machine — is the same bytes,
// at a size (the MNIST MLP against a 20-member cohort) where the
// production path does fan out, with self in the middle of the cohort so
// both mask signs occur, and under both ring widths.
func TestMaskFanOutInvariant(t *testing.T) {
	cohort := cohortOf(20)
	const self, round = 11, 4
	for _, width := range []int{2, 8} {
		fresh := func() [][]byte {
			payloads := mlpUpdate(width)
			for n, p := range payloads {
				for i := range p {
					p[i] = byte(i*7 + n)
				}
			}
			return payloads
		}
		var streams []maskStream
		for _, peer := range cohort {
			if peer != self {
				streams = append(streams, maskStream{roundKey(pairSeed(testSecret, self, peer), round), self < peer})
			}
		}
		want := fresh()
		applyMasksSplit(want, 1, width, streams)
		check := func(label string, got [][]byte) {
			t.Helper()
			for n := range want {
				if !bytes.Equal(got[n], want[n]) {
					t.Fatalf("width %d, %s: variable %d differs from the serial masking", width, label, n)
				}
			}
		}
		for _, workers := range []int{2, 7} {
			got := fresh()
			applyMasksSplit(got, workers, width, streams)
			check(fmt.Sprintf("%d workers", workers), got)
		}
		got := fresh()
		applyPairMasks(got, width, testSecret, self, cohort, round)
		check("applyPairMasks", got)
	}
}

// applyPairMasks is pairSeeds.mask for a client that has met none of
// peers yet.
func applyPairMasks(payloads [][]byte, width int, secret []byte, self uint32, peers []uint32, round uint64) {
	(&pairSeeds{secret: secret, self: self}).mask(payloads, width, peers, round)
}
