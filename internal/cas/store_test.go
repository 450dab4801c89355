package cas

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/sgx"
)

func newStoreEnclave(t *testing.T) (*sgx.Platform, *sgx.Enclave) {
	t.Helper()
	p, err := sgx.NewPlatform("cas-node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.CreateEnclave(Image(), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	return p, e
}

func TestStorePutGetDelete(t *testing.T) {
	_, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	s, err := OpenStore(e, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil || string(got) != "1" {
		t.Fatalf("Get(a) = %q, %v", got, err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreKeysPrefix(t *testing.T) {
	_, e := newStoreEnclave(t)
	s, err := OpenStore(e, fsapi.NewMem(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"session/a", "session/b", "audit/x"} {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys("session/")
	if len(keys) != 2 || keys[0] != "session/a" || keys[1] != "session/b" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestStoreReopenSameEnclaveIdentity(t *testing.T) {
	p, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	s, err := OpenStore(e, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("k3"); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh enclave with the same measurement on the same
	// platform reopens the store.
	e2, err := p.CreateEnclave(Image(), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(e2, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 9 {
		t.Fatalf("Len after reopen = %d, want 9", s2.Len())
	}
	got, err := s2.Get("k7")
	if err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("Get(k7) = %v, %v", got, err)
	}
	if _, err := s2.Get("k3"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key resurrected after reopen")
	}
}

func TestStoreRejectsDifferentEnclave(t *testing.T) {
	p, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	if _, err := OpenStore(e, fs, ""); err != nil {
		t.Fatal(err)
	}
	evil, err := p.CreateEnclave(sgx.SyntheticImage("evil-cas", 6<<20, 32<<20), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(evil, fs, ""); !errors.Is(err, ErrStoreTampered) {
		t.Fatalf("err = %v, want ErrStoreTampered", err)
	}
}

func TestStoreDetectsTamperedLog(t *testing.T) {
	p, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	s, err := OpenStore(e, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	raw, err := fsapi.ReadFile(fs, ".cas/store.log")
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := fsapi.WriteFile(fs, ".cas/store.log", raw); err != nil {
		t.Fatal(err)
	}
	e2, err := p.CreateEnclave(Image(), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(e2, fs, ""); !errors.Is(err, ErrStoreTampered) {
		t.Fatalf("err = %v, want ErrStoreTampered", err)
	}
}

func TestStoreDetectsRollback(t *testing.T) {
	p, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	s, err := OpenStore(e, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Snapshot the log after one record...
	snapshot, err := fsapi.ReadFile(fs, ".cas/store.log")
	if err != nil {
		t.Fatal(err)
	}
	// ...advance the store...
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// ...and roll the log back to the snapshot. The monotonic counter
	// outlives the file, so reopening must fail.
	if err := fsapi.WriteFile(fs, ".cas/store.log", snapshot); err != nil {
		t.Fatal(err)
	}
	e2, err := p.CreateEnclave(Image(), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(e2, fs, ""); !errors.Is(err, ErrStoreRolledBack) {
		t.Fatalf("err = %v, want ErrStoreRolledBack", err)
	}
}

// TestStoreTornTailLocksOut: a crash in the middle of a Put's write
// leaves the log ending partway through its last record. Reopening then
// fails as tampering, and the three records before it, which were
// acknowledged, are lost with it. This is today's outcome, pinned so
// that the fix flips it (open: item 24).
func TestStoreTornTailLocksOut(t *testing.T) {
	p, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	s, err := OpenStore(e, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	var before []byte // the log before the last Put
	for i := range 4 {
		if i == 3 {
			if before, err = fsapi.ReadFile(fs, ".cas/store.log"); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := fsapi.ReadFile(fs, ".cas/store.log")
	if err != nil {
		t.Fatal(err)
	}
	// Keep the last record's 4-byte header and half its body.
	torn := raw[:len(before)+4+(len(raw)-len(before)-4)/2]
	if err := fsapi.WriteFile(fs, ".cas/store.log", torn); err != nil {
		t.Fatal(err)
	}
	e2, err := p.CreateEnclave(Image(), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenStore(e2, fs, "")
	if !errors.Is(err, ErrStoreTampered) || !strings.Contains(err.Error(), "truncated record body") {
		t.Fatalf("reopening a torn log: err = %v, want ErrStoreTampered (truncated record body)", err)
	}
}

func TestStoreDetectsDeletedLog(t *testing.T) {
	p, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	s, err := OpenStore(e, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(".cas/store.log"); err != nil {
		t.Fatal(err)
	}
	e2, err := p.CreateEnclave(Image(), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(e2, fs, ""); !errors.Is(err, ErrStoreRolledBack) {
		t.Fatalf("err = %v, want ErrStoreRolledBack", err)
	}
}

func TestStoreRecordsEncryptedAtRest(t *testing.T) {
	_, e := newStoreEnclave(t)
	fs := fsapi.NewMem()
	s, err := OpenStore(e, fs, "")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("super-secret-model-key-material")
	if err := s.Put("session/prod", secret); err != nil {
		t.Fatal(err)
	}
	raw, err := fsapi.ReadFile(fs, ".cas/store.log")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Fatal("secret visible in the store log")
	}
	if bytes.Contains(raw, []byte("session/prod")) {
		t.Fatal("key name visible in the store log")
	}
}
