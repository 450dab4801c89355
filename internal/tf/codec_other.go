//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mips64p32le || mipsle || ppc64le || riscv64 || wasm)

package tf

// On a big-endian target an element's bytes in memory are not its
// encoding, so the codec converts word by word.

func (t *Tensor) putWords(words []byte) { t.putWordsLoop(words) }

func (t *Tensor) setWords(words []byte) { t.setWordsLoop(words) }
