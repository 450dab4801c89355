package fsshield

import (
	"fmt"
	"sync"

	"github.com/securetf/securetf/internal/sgx"
)

// LocalAudit is an in-process AuditService: a monotonic epoch and root per
// path. The production deployment uses the CAS audit service instead; the
// semantics are the same, except that the CAS also takes an exact replay
// of the last advance, which its client sends when it retries a round
// trip whose reply was lost.
type LocalAudit struct {
	mu    sync.Mutex
	roots map[string]auditEntry
}

type auditEntry struct {
	epoch uint64
	root  [32]byte
}

var _ AuditService = (*LocalAudit)(nil)

// NewLocalAudit creates an empty audit service.
func NewLocalAudit() *LocalAudit {
	return &LocalAudit{roots: make(map[string]auditEntry)}
}

// AdvanceRoot implements AuditService. Epochs must strictly increase.
func (a *LocalAudit) AdvanceRoot(path string, epoch uint64, root [32]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur, ok := a.roots[path]; ok && epoch <= cur.epoch {
		return fmt.Errorf("fsshield: audit epoch for %q must exceed %d, got %d", path, cur.epoch, epoch)
	}
	a.roots[path] = auditEntry{epoch: epoch, root: root}
	return nil
}

// CheckRoot implements AuditService.
func (a *LocalAudit) CheckRoot(path string) (uint64, [32]byte, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.roots[path]
	return e.epoch, e.root, ok, nil
}

// EnclaveMeter charges shield crypto work to an enclave.
type EnclaveMeter struct {
	Enclave *sgx.Enclave
}

var _ Meter = EnclaveMeter{}

// Crypto implements Meter.
func (m EnclaveMeter) Crypto(n int64) {
	if m.Enclave != nil {
		m.Enclave.CryptoOp(n)
	}
}
