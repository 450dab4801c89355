// Package seccrypto collects the cryptographic primitives shared by the
// secureTF substrate: authenticated encryption (AES-256-GCM), HKDF-SHA256
// key derivation, and ECDSA P-256 signing as used for enclave quotes and
// TLS identities.
//
// Everything here wraps the Go standard library; no custom cryptography is
// implemented beyond composition.
package seccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// KeySize is the symmetric key size in bytes (AES-256).
const KeySize = 32

// Key is a symmetric encryption key.
type Key [KeySize]byte

var (
	// ErrCiphertextTooShort reports a ciphertext shorter than a nonce.
	ErrCiphertextTooShort = errors.New("seccrypto: ciphertext too short")
	// ErrAuthentication reports a failed GCM tag check, i.e. tampering.
	ErrAuthentication = errors.New("seccrypto: message authentication failed")
)

// NewRandomKey generates a fresh random key.
func NewRandomKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("seccrypto: generating key: %w", err)
	}
	return k, nil
}

// Overhead is the GCM tag a sealed message carries beyond its
// plaintext (a Seal ciphertext also carries its nonce before it).
const Overhead = 16

// AEAD is one key's AES-256-GCM, built once. Building one takes about
// 0.6–1 µs and 1.3 KB in three allocations, where sealing a 64 KiB chunk
// under it takes about 20 µs (BenchmarkAEAD on a 2-vCPU Xeon), so a
// caller that seals or opens many messages under one key (a shielded
// file's chunks) keeps one rather than pay that per message.
type AEAD struct {
	gcm cipher.AEAD
}

// NewAEAD builds the AES-256-GCM of key.
func NewAEAD(key Key) *AEAD {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on a bad key size, impossible here.
		panic(fmt.Sprintf("seccrypto: cipher: %v", err))
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		// NewGCM only fails on a block size other than AES's.
		panic(fmt.Sprintf("seccrypto: GCM: %v", err))
	}
	return &AEAD{gcm: gcm}
}

// Seal encrypts and authenticates plaintext under the caller-provided
// nonce, binding aad, and appends the ciphertext and its tag to dst. It
// seals in place when dst is plaintext[:0] with Overhead bytes of spare
// capacity; otherwise dst must not overlap plaintext. The caller is
// responsible for nonce uniqueness per key.
func (a *AEAD) Seal(dst []byte, nonce [12]byte, plaintext, aad []byte) []byte {
	return a.gcm.Seal(dst, nonce[:], plaintext, aad)
}

// Open authenticates a ciphertext sealed under nonce and aad and appends
// its plaintext to dst, so passing buf[:0] with room for the plaintext
// opens straight into buf. dst must not overlap ciphertext unless it is
// ciphertext[:0]. On failure it returns ErrAuthentication, and the bytes
// it would have written are zero.
func (a *AEAD) Open(dst []byte, nonce [12]byte, ciphertext, aad []byte) ([]byte, error) {
	pt, err := a.gcm.Open(dst, nonce[:], ciphertext, aad)
	if err != nil {
		return nil, ErrAuthentication
	}
	return pt, nil
}

// Seal encrypts and authenticates plaintext with the key, binding the
// additional data aad. The returned ciphertext embeds a random nonce as a
// prefix and can be decrypted with Open.
func Seal(key Key, plaintext, aad []byte) ([]byte, error) {
	var nonce [12]byte
	if _, err := io.ReadFull(rand.Reader, nonce[:]); err != nil {
		return nil, fmt.Errorf("seccrypto: generating nonce: %w", err)
	}
	out := make([]byte, len(nonce), len(nonce)+len(plaintext)+Overhead)
	copy(out, nonce[:])
	return NewAEAD(key).Seal(out, nonce, plaintext, aad), nil
}

// Open authenticates and decrypts a ciphertext produced by Seal with the
// same key and additional data. It returns ErrAuthentication if the
// ciphertext or aad were modified.
func Open(key Key, ciphertext, aad []byte) ([]byte, error) {
	var nonce [12]byte
	if len(ciphertext) < len(nonce) {
		return nil, ErrCiphertextTooShort
	}
	copy(nonce[:], ciphertext)
	return NewAEAD(key).Open(nil, nonce, ciphertext[len(nonce):], aad)
}

// SealDeterministic is AEAD.Seal into a new buffer under a key used
// once. It exists for chunk stores that derive a unique nonce per (file,
// chunk, epoch) and must not pay the ciphertext expansion of a stored
// nonce.
func SealDeterministic(key Key, nonce [12]byte, plaintext, aad []byte) ([]byte, error) {
	return NewAEAD(key).Seal(nil, nonce, plaintext, aad), nil
}

// OpenDeterministic reverses SealDeterministic: AEAD.Open into a new
// buffer.
func OpenDeterministic(key Key, nonce [12]byte, ciphertext, aad []byte) ([]byte, error) {
	return NewAEAD(key).Open(nil, nonce, ciphertext, aad)
}

// HKDF derives a key of KeySize bytes from the input keying material using
// HKDF-SHA256 (RFC 5869) with the given salt and info strings.
func HKDF(ikm []byte, salt, info string) Key {
	// Extract.
	ext := hmac.New(sha256.New, []byte(salt))
	ext.Write(ikm)
	prk := ext.Sum(nil)
	// Expand: a single block suffices for 32-byte output.
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte(info))
	exp.Write([]byte{1})
	var k Key
	copy(k[:], exp.Sum(nil))
	return k
}

// PRG is a deterministic pseudo-random generator: AES-256-CTR over an
// all-zero stream, keyed by a Key (typically derived with HKDF). Two
// parties holding the same key produce byte-identical streams, which is
// what the federated secure-aggregation masks and the per-round client
// sampling rely on — no math/rand, no global state, no RNG on hot
// paths. A PRG is NOT safe for concurrent use; derive one per
// goroutine.
type PRG struct {
	stream cipher.Stream
	// buf holds one carry word for Uint64, refilled 512 bytes at a time
	// so short reads do not pay per-call CTR setup.
	buf []byte
	off int
}

// NewPRG returns a deterministic generator over the given key.
func NewPRG(key Key) *PRG {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on a bad key size, impossible here.
		panic(fmt.Sprintf("seccrypto: PRG cipher: %v", err))
	}
	var iv [aes.BlockSize]byte
	return &PRG{stream: cipher.NewCTR(block, iv[:])}
}

// zeros is the all-zero plaintext Read encrypts. It is never written.
var zeros [4096]byte

// Read fills p with deterministic pseudo-random bytes. It never fails.
// The key stream is XORed from zeros into p, a block at a time, so
// whatever p held is overwritten without first being cleared.
func (g *PRG) Read(p []byte) {
	for len(p) > 0 {
		n := min(len(p), len(zeros))
		g.stream.XORKeyStream(p[:n], zeros[:n])
		p = p[n:]
	}
}

// Uint64 returns the next 64-bit word of the stream.
func (g *PRG) Uint64() uint64 {
	if g.off == len(g.buf) {
		if g.buf == nil {
			g.buf = make([]byte, 512)
		}
		g.Read(g.buf)
		g.off = 0
	}
	v := binary.LittleEndian.Uint64(g.buf[g.off:])
	g.off += 8
	return v
}

// Intn returns a uniform integer in [0, n). It uses rejection sampling,
// so the distribution carries no modulo bias. n must be positive.
func (g *PRG) Intn(n int) int {
	if n <= 0 {
		panic("seccrypto: PRG.Intn on non-positive bound")
	}
	limit := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		if v := g.Uint64(); v < limit {
			return int(v % uint64(n))
		}
	}
}

// Perm returns a deterministic pseudo-random permutation of [0, n) —
// a Fisher-Yates shuffle driven by the generator.
func (g *PRG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SigningKey is an ECDSA P-256 private key used for quotes and
// certificates.
type SigningKey struct {
	priv *ecdsa.PrivateKey
}

// NewSigningKey generates a fresh P-256 signing key.
func NewSigningKey() (*SigningKey, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("seccrypto: generating signing key: %w", err)
	}
	return &SigningKey{priv: priv}, nil
}

// Public returns the public half of the key.
func (k *SigningKey) Public() *ecdsa.PublicKey { return &k.priv.PublicKey }

// Private exposes the underlying private key for x509 certificate
// issuance. Callers must not mutate it.
func (k *SigningKey) Private() *ecdsa.PrivateKey { return k.priv }

// Sign produces an ASN.1 ECDSA signature over SHA-256(msg).
func (k *SigningKey) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(rand.Reader, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("seccrypto: signing: %w", err)
	}
	return sig, nil
}

// Verify checks an ASN.1 ECDSA signature over SHA-256(msg).
func Verify(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	return ecdsa.VerifyASN1(pub, digest[:], sig)
}
