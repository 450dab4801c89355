package sgx

import (
	"crypto/ecdsa"
	"fmt"

	"github.com/securetf/securetf/internal/seccrypto"
)

// Seal encrypts data under the enclave's sealing key (EGETKEY policy
// MRENCLAVE): only an enclave with the same measurement on the same
// platform can unseal it. The aad binds context (e.g. a file path).
func (e *Enclave) Seal(plaintext, aad []byte) ([]byte, error) {
	if err := e.checkAlive(); err != nil {
		return nil, err
	}
	key := e.platform.sealKeyFor(e.measurement)
	e.CryptoOp(int64(len(plaintext)))
	ct, err := seccrypto.Seal(key, plaintext, aad)
	if err != nil {
		return nil, fmt.Errorf("sgx: sealing: %w", err)
	}
	return ct, nil
}

// Unseal decrypts data sealed by an enclave with the same measurement on
// the same platform.
func (e *Enclave) Unseal(ciphertext, aad []byte) ([]byte, error) {
	if err := e.checkAlive(); err != nil {
		return nil, err
	}
	key := e.platform.sealKeyFor(e.measurement)
	e.CryptoOp(int64(len(ciphertext)))
	pt, err := seccrypto.Open(key, ciphertext, aad)
	if err != nil {
		return nil, fmt.Errorf("sgx: unsealing: %w", err)
	}
	return pt, nil
}

func verifySig(pub *ecdsa.PublicKey, msg, sig []byte) bool {
	return seccrypto.Verify(pub, msg, sig)
}
