package federated

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/federated/ring"
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
	maskPRG(seed, 4).Read(a)
	maskPRG(seed, 5).Read(b)
	if bytes.Equal(a, b) {
		t.Fatal("distinct rounds produced identical mask streams")
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
// subtracting reveal by reveal.
func TestDropoutRecovery(t *testing.T) {
	cohort := cohortOf(12)
	dead := []uint32{4, 9, 10}
	const round = 3
	clone := func(update [][]byte) [][]byte {
		out := make([][]byte, len(update))
		for n, p := range update {
			out[n] = bytes.Clone(p)
		}
		return out
	}
	for _, width := range []int{2, 8} {
		acc, want := mlpUpdate(width), mlpUpdate(width)
		for _, id := range cohort {
			raw := mlpUpdate(width)
			for n, p := range raw {
				for i := range p {
					p[i] = byte(int(id)*31 + i*7 + n)
				}
			}
			masked := clone(raw)
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
		serial := clone(acc)
		for _, id := range cohort {
			if slices.Contains(dead, id) {
				continue
			}
			var revealed []maskStream
			for _, d := range dead {
				revealed = append(revealed, maskStream{pairSeed(testSecret, id, d), id > d})
			}
			applyMasksSplit(serial, 1, width, revealed, round)
			streams = append(streams, revealed...)
		}
		for n := range want {
			if !bytes.Equal(serial[n], want[n]) {
				t.Fatalf("width %d: per-reveal recovery of variable %d differs from the survivors' sum", width, n)
			}
		}
		for _, workers := range []int{1, 2, 7} {
			deferred := clone(acc)
			applyMasksSplit(deferred, workers, width, streams, round)
			for n := range want {
				if !bytes.Equal(deferred[n], serial[n]) {
					t.Fatalf("width %d: deferred recovery over %d workers differs from per-reveal at variable %d", width, workers, n)
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
				streams = append(streams, maskStream{pairSeed(testSecret, self, peer), self < peer})
			}
		}
		want := fresh()
		applyMasksSplit(want, 1, width, streams, round)
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
			applyMasksSplit(got, workers, width, streams, round)
			check(fmt.Sprintf("%d workers", workers), got)
		}
		got := fresh()
		applyPairMasks(got, width, testSecret, self, cohort, round)
		check("applyPairMasks", got)
	}
}
