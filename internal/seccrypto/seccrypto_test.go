package seccrypto

import (
	"bytes"
	"crypto/x509"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the model weights are confidential")
	aad := []byte("context")
	ct, err := Seal(key, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, ct, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip mismatch: got %q want %q", got, pt)
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	key, _ := NewRandomKey()
	ct, err := Seal(key, []byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ct); i += 7 {
		mutated := append([]byte(nil), ct...)
		mutated[i] ^= 0x01
		if _, err := Open(key, mutated, nil); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestOpenRejectsWrongAAD(t *testing.T) {
	key, _ := NewRandomKey()
	ct, err := Seal(key, []byte("payload"), []byte("right"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, ct, []byte("wrong")); err == nil {
		t.Fatal("wrong AAD accepted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, _ := NewRandomKey()
	k2, _ := NewRandomKey()
	ct, err := Seal(k1, []byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(k2, ct, nil); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestOpenShortCiphertext(t *testing.T) {
	key, _ := NewRandomKey()
	if _, err := Open(key, []byte{1, 2, 3}, nil); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	key, _ := NewRandomKey()
	f := func(pt, aad []byte) bool {
		ct, err := Seal(key, pt, aad)
		if err != nil {
			return false
		}
		got, err := Open(key, ct, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicSealRoundTrip(t *testing.T) {
	key, _ := NewRandomKey()
	var nonce [12]byte
	nonce[0] = 42
	pt := []byte("chunk data")
	ct, err := SealDeterministic(key, nonce, pt, []byte("chunk-0"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenDeterministic(key, nonce, ct, []byte("chunk-0"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("deterministic round trip mismatch")
	}
	// Wrong nonce must fail.
	var wrong [12]byte
	if _, err := OpenDeterministic(key, wrong, ct, []byte("chunk-0")); err == nil {
		t.Fatal("wrong nonce accepted")
	}
}

func TestHKDFDeterministicAndDomainSeparated(t *testing.T) {
	ikm := []byte("input keying material")
	a := HKDF(ikm, "salt", "info")
	b := HKDF(ikm, "salt", "info")
	if a != b {
		t.Fatal("HKDF not deterministic")
	}
	if HKDF(ikm, "salt", "other") == a {
		t.Fatal("HKDF ignores info")
	}
	if HKDF(ikm, "other", "info") == a {
		t.Fatal("HKDF ignores salt")
	}
	if HKDF([]byte("different"), "salt", "info") == a {
		t.Fatal("HKDF ignores ikm")
	}
}

func TestSignVerify(t *testing.T) {
	k, err := NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("attestation report")
	sig, err := k.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(k.Public(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(k.Public(), []byte("other message"), sig) {
		t.Fatal("signature valid for different message")
	}
	k2, _ := NewSigningKey()
	if Verify(k2.Public(), msg, sig) {
		t.Fatal("signature valid under different key")
	}
}

func TestCAIssueAndVerifyChain(t *testing.T) {
	ca, err := NewCA("securetf-test-ca")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue("worker-1", "localhost", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf.Certificate) != 2 {
		t.Fatalf("chain length = %d, want 2", len(leaf.Certificate))
	}
}

func TestCACertExports(t *testing.T) {
	ca, err := NewCA("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	der := ca.CertDER()
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("CertDER not parseable: %v", err)
	}
	if cert.Subject.CommonName != "test-ca" {
		t.Fatalf("CA common name %q", cert.Subject.CommonName)
	}
	if !cert.IsCA {
		t.Fatal("CA certificate not marked as CA")
	}

	// An issued leaf must verify against the exported pool.
	leaf, err := ca.Issue("svc", "localhost")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := x509.ParseCertificate(leaf.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parsed.Verify(x509.VerifyOptions{
		Roots:   ca.CertPool(),
		DNSName: "localhost",
	}); err != nil {
		t.Fatalf("leaf does not verify against CertPool: %v", err)
	}
	// And must not verify against an unrelated CA's pool.
	other, err := NewCA("other-ca")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parsed.Verify(x509.VerifyOptions{Roots: other.CertPool(), DNSName: "localhost"}); err == nil {
		t.Fatal("leaf verified against a foreign CA")
	}
}

// TestAEADSealsAndOpensInPlace holds the kept handle to the one-shot
// wrappers: sealing a plaintext in its own buffer gives
// SealDeterministic's bytes, opening them in place gives the plaintext
// back, and a failed open leaves the bytes it would have written zero.
func TestAEADSealsAndOpensInPlace(t *testing.T) {
	key, _ := NewRandomKey()
	a := NewAEAD(key)
	nonce := [12]byte{7}
	aad := []byte("chunk-3")
	pt := bytes.Repeat([]byte("weights!"), 100)
	want, err := SealDeterministic(key, nonce, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(pt), len(pt)+Overhead)
	copy(buf, pt)
	sealed := a.Seal(buf[:0], nonce, buf, aad)
	if !bytes.Equal(sealed, want) || &sealed[0] != &buf[0] {
		t.Fatal("in-place Seal differs from SealDeterministic or left its buffer")
	}
	opened, err := a.Open(sealed[:0], nonce, sealed, aad)
	if err != nil || !bytes.Equal(opened, pt) || &opened[0] != &buf[0] {
		t.Fatalf("in-place Open = %v, want the plaintext in its buffer", err)
	}
	sealed = a.Seal(buf[:0], nonce, buf[:len(pt)], aad)
	sealed[0] ^= 1
	dst := bytes.Repeat([]byte{0xff}, len(pt))
	if _, err := a.Open(dst[:0], nonce, sealed, aad); err != ErrAuthentication {
		t.Fatalf("tampered Open: err = %v, want ErrAuthentication", err)
	}
	if !bytes.Equal(dst, make([]byte, len(pt))) {
		t.Fatal("a failed Open left plaintext in its destination")
	}
}

// BenchmarkAEAD prices building a key's AES-256-GCM against sealing one
// 64 KiB shield chunk under it, the comparison AEAD's comment makes.
func BenchmarkAEAD(b *testing.B) {
	key, err := NewRandomKey()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			NewAEAD(key)
		}
	})
	b.Run("seal_64KiB", func(b *testing.B) {
		a := NewAEAD(key)
		plain := make([]byte, 64<<10)
		dst := make([]byte, 0, len(plain)+Overhead)
		b.SetBytes(int64(len(plain)))
		b.ReportAllocs()
		for b.Loop() {
			a.Seal(dst, [12]byte{}, plain, nil)
		}
	})
}
