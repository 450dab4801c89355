package ring

// foldSSE2 computes dst ± src over the first len(dst)/64 whole 64-byte
// blocks (fold_amd64.s): in 64-bit lanes if wide, else in 16-bit ones,
// subtracting if sub. It trusts len(src) ≥ len(dst).
//
//go:noescape
func foldSSE2(dst, src []byte, wide, sub bool)

// fold computes dst ± src ring word by ring word: the assembly over the
// whole 64-byte blocks, foldSWAR over the rest, bit for bit what
// foldSWAR alone computes (TestFoldMatchesSWAR). top and neg are
// foldSWAR's.
//
// The assembly reads what it is told to, so the bound is established
// here: the slice expression panics unless src covers dst.
func fold(dst, src []byte, top, neg uint64) {
	src = src[:len(dst)]
	n := len(dst) &^ 63
	foldSSE2(dst[:n], src[:n], top == 1<<63, neg != 0)
	foldSWAR(dst[n:], src[n:], top, neg)
}
