//go:build !amd64

package ring

func fold(dst, src []byte, top, neg uint64) { foldSWAR(dst, src, top, neg) }
