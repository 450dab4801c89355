package fsshield

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/fsapi/fstest"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/sgx"
)

func newTestShield(t testing.TB, inner fsapi.FS, opts ...func(*Config)) *Shield {
	t.Helper()
	key, err := seccrypto.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Inner:     inner,
		VolumeKey: key,
		Rules: []Rule{
			{Prefix: "secret/", Level: LevelEncrypted},
			{Prefix: "signed/", Level: LevelAuthenticated},
			{Prefix: "plain/", Level: LevelPassthrough},
		},
		ChunkSize: 256, // small chunks exercise multi-chunk paths
	}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing inner FS accepted")
	}
	if _, err := New(Config{Inner: fsapi.NewMem(), Rules: []Rule{{Prefix: "x", Level: Level(99)}}}); err == nil {
		t.Fatal("invalid level accepted")
	}
}

func TestLevelForLongestPrefixWins(t *testing.T) {
	s := newTestShield(t, fsapi.NewMem(), func(c *Config) {
		c.Rules = []Rule{
			{Prefix: "data/", Level: LevelAuthenticated},
			{Prefix: "data/secret/", Level: LevelEncrypted},
		}
	})
	if got := s.LevelFor("data/x"); got != LevelAuthenticated {
		t.Fatalf("LevelFor(data/x) = %v", got)
	}
	if got := s.LevelFor("data/secret/x"); got != LevelEncrypted {
		t.Fatalf("LevelFor(data/secret/x) = %v", got)
	}
	if got := s.LevelFor("elsewhere"); got != LevelPassthrough {
		t.Fatalf("LevelFor(elsewhere) = %v", got)
	}
}

func TestRoundTripAllLevels(t *testing.T) {
	for _, path := range []string{"secret/model.bin", "signed/model.bin", "plain/model.bin"} {
		inner := fsapi.NewMem()
		s := newTestShield(t, inner)
		data := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 B > 6 chunks
		if err := fsapi.WriteFile(s, path, data); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := fsapi.ReadFile(s, path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch", path)
		}
	}
}

func TestCiphertextActuallyEncrypted(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	plaintext := bytes.Repeat([]byte("SENSITIVE"), 200)
	if err := fsapi.WriteFile(s, "secret/f", plaintext); err != nil {
		t.Fatal(err)
	}
	raw, err := fsapi.ReadFile(inner, "secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("SENSITIVE")) {
		t.Fatal("plaintext visible on the untrusted file system")
	}
}

func TestAuthenticatedLevelLeavesPlaintextReadable(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if err := fsapi.WriteFile(s, "signed/f", []byte("PUBLIC-BUT-SIGNED")); err != nil {
		t.Fatal(err)
	}
	raw, err := fsapi.ReadFile(inner, "signed/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("PUBLIC-BUT-SIGNED")) {
		t.Fatal("authenticate-only file should keep plaintext visible")
	}
}

func TestTamperDetectionData(t *testing.T) {
	forEachReader(t, func(t *testing.T, path string, read readFunc) {
		inner := fsapi.NewMem()
		s := newTestShield(t, inner)
		if err := fsapi.WriteFile(s, path, bytes.Repeat([]byte("x"), 1000)); err != nil {
			t.Fatal(err)
		}
		// Flip one byte of the stored data.
		raw, _ := fsapi.ReadFile(inner, path)
		raw[len(raw)/2] ^= 0x01
		if err := fsapi.WriteFile(inner, path, raw); err != nil {
			t.Fatal(err)
		}
		if err := read(s, path); !errors.Is(err, ErrTampered) {
			t.Fatalf("err = %v, want ErrTampered", err)
		}
	})
}

func TestTamperDetectionMetadata(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if err := fsapi.WriteFile(s, "secret/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	raw, _ := fsapi.ReadFile(inner, "secret/f"+metaSuffix)
	raw[len(raw)-1] ^= 0x01
	if err := fsapi.WriteFile(inner, "secret/f"+metaSuffix, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := fsapi.ReadFile(s, "secret/f"); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestMissingMetadataIsTampering(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if err := fsapi.WriteFile(s, "secret/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := inner.Remove("secret/f" + metaSuffix); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("secret/f"); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestChunkSwapDetected(t *testing.T) {
	forEachReader(t, func(t *testing.T, path string, read readFunc) {
		inner := fsapi.NewMem()
		s := newTestShield(t, inner)
		// Two chunks of identical plaintext: swapping their stored
		// bytes must still be detected because the chunk index is in
		// the AAD (or the MAC).
		data := append(bytes.Repeat([]byte("A"), 256), bytes.Repeat([]byte("A"), 256)...)
		if err := fsapi.WriteFile(s, path, data); err != nil {
			t.Fatal(err)
		}
		raw, _ := fsapi.ReadFile(inner, path)
		slot := len(raw) / 2
		chunk0 := append([]byte(nil), raw[:slot]...)
		copy(raw[:slot], raw[slot:2*slot])
		copy(raw[slot:2*slot], chunk0)
		if err := fsapi.WriteFile(inner, path, raw); err != nil {
			t.Fatal(err)
		}
		if err := read(s, path); !errors.Is(err, ErrTampered) {
			t.Fatalf("err = %v, want ErrTampered for swapped chunks", err)
		}
	})
}

func TestChunkReplayOldVersionDetected(t *testing.T) {
	forEachReader(t, func(t *testing.T, path string, read readFunc) {
		inner := fsapi.NewMem()
		s := newTestShield(t, inner)
		if err := fsapi.WriteFile(s, path, bytes.Repeat([]byte("v1"), 128)); err != nil {
			t.Fatal(err)
		}
		oldData, _ := fsapi.ReadFile(inner, path)

		// Rewrite the file (epoch and counters advance).
		if err := fsapi.WriteFile(s, path, bytes.Repeat([]byte("v2"), 128)); err != nil {
			t.Fatal(err)
		}
		// Replay only the old data file, keeping the new metadata.
		if err := fsapi.WriteFile(inner, path, oldData); err != nil {
			t.Fatal(err)
		}
		if err := read(s, path); !errors.Is(err, ErrTampered) {
			t.Fatalf("err = %v, want ErrTampered for replayed chunk", err)
		}
	})
}

func TestRollbackDetectedWithAudit(t *testing.T) {
	inner := fsapi.NewMem()
	audit := NewLocalAudit()
	s := newTestShield(t, inner, func(c *Config) { c.Audit = audit })

	if err := fsapi.WriteFile(s, "secret/f", []byte("version-1")); err != nil {
		t.Fatal(err)
	}
	oldData, _ := fsapi.ReadFile(inner, "secret/f")
	oldMeta, _ := fsapi.ReadFile(inner, "secret/f"+metaSuffix)

	if err := fsapi.WriteFile(s, "secret/f", []byte("version-2")); err != nil {
		t.Fatal(err)
	}

	// Roll back BOTH files to the old consistent snapshot: only the audit
	// service can catch this.
	if err := fsapi.WriteFile(inner, "secret/f", oldData); err != nil {
		t.Fatal(err)
	}
	if err := fsapi.WriteFile(inner, "secret/f"+metaSuffix, oldMeta); err != nil {
		t.Fatal(err)
	}
	if _, err := fsapi.ReadFile(s, "secret/f"); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
}

func TestRollbackUndetectedWithoutAudit(t *testing.T) {
	// Documents the security boundary: without the audit service a full
	// consistent-snapshot rollback is NOT detectable (this is why the CAS
	// freshness service exists).
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if err := fsapi.WriteFile(s, "secret/f", []byte("version-1")); err != nil {
		t.Fatal(err)
	}
	oldData, _ := fsapi.ReadFile(inner, "secret/f")
	oldMeta, _ := fsapi.ReadFile(inner, "secret/f"+metaSuffix)
	if err := fsapi.WriteFile(s, "secret/f", []byte("version-2")); err != nil {
		t.Fatal(err)
	}
	fsapi.WriteFile(inner, "secret/f", oldData)
	fsapi.WriteFile(inner, "secret/f"+metaSuffix, oldMeta)
	got, err := fsapi.ReadFile(s, "secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version-1" {
		t.Fatalf("got %q", got)
	}
}

func TestTruncationAttackDetected(t *testing.T) {
	forEachReader(t, func(t *testing.T, path string, read readFunc) {
		inner := fsapi.NewMem()
		s := newTestShield(t, inner)
		if err := fsapi.WriteFile(s, path, bytes.Repeat([]byte("z"), 1024)); err != nil {
			t.Fatal(err)
		}
		// The host silently truncates the data file.
		f, err := inner.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(100); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := read(s, path); !errors.Is(err, ErrIago) {
			t.Fatalf("err = %v, want ErrIago for truncated data", err)
		}
	})
}

// readFunc reads a whole shielded file one way.
type readFunc func(s *Shield, path string) error

// forEachReader runs check at both protected levels with both ways a
// chunk reaches a reader: fsapi.ReadFile covers every chunk whole, so
// each is opened straight into its buffer and never cached, and ReadAts
// of 100 bytes cover none whole, so each is opened into its cache slot.
// A tampered file must fail both with the same error.
func forEachReader(t *testing.T, check func(t *testing.T, path string, read readFunc)) {
	readers := []struct {
		name string
		read readFunc
	}{
		{"ReadFile", func(s *Shield, path string) error {
			_, err := fsapi.ReadFile(s, path)
			return err
		}},
		{"ReadAt", func(s *Shield, path string) error {
			f, err := s.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			size, err := f.Size()
			if err != nil {
				return err
			}
			buf := make([]byte, 100)
			for off := int64(0); off < size; off += int64(len(buf)) {
				if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
					return err
				}
			}
			return nil
		}},
	}
	for _, path := range []string{"secret/f", "signed/f"} {
		for _, r := range readers {
			t.Run(path+"/"+r.name, func(t *testing.T) { check(t, path, r.read) })
		}
	}
}

func TestStatReportsLogicalSize(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if err := fsapi.WriteFile(s, "secret/f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	fi, err := s.Stat("secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 1000 {
		t.Fatalf("logical size = %d, want 1000", fi.Size)
	}
	rawFi, err := inner.Stat("secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if rawFi.Size <= 1000 {
		t.Fatalf("stored size = %d, want > 1000 (tags)", rawFi.Size)
	}
}

func TestListHidesMetadata(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if err := fsapi.WriteFile(s, "secret/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := s.List("secret")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "f" {
		t.Fatalf("List = %v, want [f]", names)
	}
}

func TestRenameReencrypts(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if err := fsapi.WriteFile(s, "secret/a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("secret/a", "secret/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat("secret/a"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatal("old name still present")
	}
	got, err := fsapi.ReadFile(s, "secret/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestRandomAccessReadWrite(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	f, err := s.Create("secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("world"), 600); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := s.Open("secret/f")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, 5)
	if _, err := g.ReadAt(buf, 600); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt(600) = %q", buf)
	}
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("ReadAt(0) = %q", buf)
	}
	// The zero-filled gap must read as zeros.
	gap := make([]byte, 10)
	if _, err := g.ReadAt(gap, 300); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gap, make([]byte, 10)) {
		t.Fatalf("gap = %v, want zeros", gap)
	}
}

func TestTruncateShrinkGrow(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	f, err := s.Create("secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte("abcd"), 200)); err != nil { // 800 B
		t.Fatal(err)
	}
	if err := f.Truncate(300); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(500); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(s, "secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("len = %d, want 500", len(got))
	}
	want := append(bytes.Repeat([]byte("abcd"), 75), make([]byte, 200)...)
	if !bytes.Equal(got, want) {
		t.Fatal("content after shrink+grow mismatch")
	}
}

// TestGrowAfterTruncateReadsZero: a Truncate that shortens a cached
// chunk keeps its old bytes past the new length, and a write past the
// end that grows the chunk in place must not bring them back. The gap
// reads zero at every level, after a reopen.
func TestGrowAfterTruncateReadsZero(t *testing.T) {
	for _, path := range []string{"secret/f", "signed/f", "plain/f"} {
		s := newTestShield(t, fsapi.NewMem())
		f, err := s.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte{0xff}, 64<<10)); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(10); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{1}, 20); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := fsapi.ReadFile(s, path)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append(bytes.Repeat([]byte{0xff}, 10), make([]byte, 10)...), 1)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: read back % x, want % x", path, got, want)
		}
	}
}

// TestWarmShieldWriteAllocation is the snapshot write's ceiling: writing
// a train-sync-sized shard snapshot (0.8 MB, 12 whole chunks and a
// tail) over the last one, at the default chunk size, seals each whole
// chunk straight from the snapshot into the file's one stored-chunk
// buffer and caches only the tail. So it allocates that buffer (65 552
// bytes, which the allocator rounds up to 73 728), the tail's cache slot
// (65 536) and little beside them: at most 20 KiB for the metadata, the
// keys and ciphers and the file handles, 159 744 bytes in all. Caching
// every chunk until Close took 1.17× the snapshot, 939 464 bytes.
func TestWarmShieldWriteAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	s := newTestShield(t, fsapi.NewOS(t.TempDir()), func(c *Config) { c.ChunkSize = DefaultChunkSize })
	snapshot := make([]byte, 800_000)
	rand.New(rand.NewSource(1)).Read(snapshot)
	write := func() {
		if err := fsapi.WriteFile(s, "secret/shard-0.ckpt", snapshot); err != nil {
			t.Fatal(err)
		}
	}
	write()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		write()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	stored := (DefaultChunkSize + seccrypto.Overhead + 8191) / 8192 * 8192
	if limit := uint64(stored + DefaultChunkSize + 20<<10); least > limit {
		t.Fatalf("rewriting a %d-byte snapshot allocated %d bytes, want at most %d", len(snapshot), least, limit)
	}
	t.Logf("rewriting a %d-byte snapshot allocated %d bytes", len(snapshot), least)
}

// TestShieldReadFileAllocation is the model load's ceiling: reading a
// 4 MiB encrypted file whole through fsapi.ReadFile opens each chunk
// straight into the returned buffer, so it allocates that buffer and
// little beside it — at most 1.1× the file, where a ciphertext buffer,
// a plaintext buffer and a cache entry per chunk took about 3×.
func TestShieldReadFileAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	s := newTestShield(t, fsapi.NewOS(t.TempDir()), func(c *Config) { c.ChunkSize = DefaultChunkSize })
	model := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(model)
	if err := fsapi.WriteFile(s, "secret/model.stfl", model); err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := fsapi.ReadFile(s, "secret/model.stfl")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatal("read back a different model")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(len(model)) * 11 / 10; least > limit {
		t.Fatalf("reading a %d-byte file allocated %d bytes, want at most %d", len(model), least, limit)
	}
	t.Logf("reading a %d-byte file allocated %d bytes", len(model), least)
}

// TestShieldChargesPinned pins the shield's virtual cost: writing a
// 3½-chunk file and reading it back advance an enclave's clock by these
// nanoseconds at each level, whichever way the chunks are read. A change
// to how chunks are read, sealed or opened must not move them.
func TestShieldChargesPinned(t *testing.T) {
	want := map[string]struct{ write, read time.Duration }{
		"secret/f": {write: 57390, read: 57414},
		"signed/f": {write: 57392, read: 57432},
	}
	plat, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := plat.CreateEnclave(sgx.SyntheticImage("shield", 1<<20, 1<<20), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestShield(t, fsapi.NewMem(), func(c *Config) {
		c.ChunkSize = DefaultChunkSize
		c.Meter = EnclaveMeter{Enclave: enclave}
	})
	data := make([]byte, DefaultChunkSize*7/2)
	rand.New(rand.NewSource(1)).Read(data)
	charged := func(t *testing.T, do func() error) time.Duration {
		start := enclave.Clock().Now()
		if err := do(); err != nil {
			t.Fatal(err)
		}
		return enclave.Clock().Now() - start
	}
	forEachReader(t, func(t *testing.T, path string, read readFunc) {
		write := charged(t, func() error { return fsapi.WriteFile(s, path, data) })
		readNS := charged(t, func() error { return read(s, path) })
		if w := want[path]; write != w.write || readNS != w.read {
			t.Errorf("write charged %d ns, read %d ns; want %d and %d", write, readNS, w.write, w.read)
		}
	})
}

func TestWrongVolumeKeyFails(t *testing.T) {
	inner := fsapi.NewMem()
	s1 := newTestShield(t, inner)
	if err := fsapi.WriteFile(s1, "secret/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	s2 := newTestShield(t, inner) // different random volume key
	if _, err := fsapi.ReadFile(s2, "secret/f"); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered with wrong key", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		n := int(seed%4096) + 1
		if n < 0 {
			n = -n + 1
		}
		data := make([]byte, n)
		rng.Read(data)
		if err := fsapi.WriteFile(s, "secret/prop", data); err != nil {
			return false
		}
		got, err := fsapi.ReadFile(s, "secret/prop")
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseWriteProperty(t *testing.T) {
	// Arbitrary WriteAt sequences must equal the same writes applied to a
	// plain in-memory buffer.
	type op struct {
		Off  uint16
		Data []byte
	}
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	check := func(ops []op) bool {
		_ = s.Remove("secret/sparse")
		f, err := s.Create("secret/sparse")
		if err != nil {
			return false
		}
		var ref []byte
		for _, o := range ops {
			off := int(o.Off % 2048)
			if len(o.Data) > 512 {
				o.Data = o.Data[:512]
			}
			if _, err := f.WriteAt(o.Data, int64(off)); err != nil {
				return false
			}
			if need := off + len(o.Data); need > len(ref) {
				grown := make([]byte, need)
				copy(grown, ref)
				ref = grown
			}
			copy(ref[off:], o.Data)
		}
		if err := f.Close(); err != nil {
			return false
		}
		got, err := fsapi.ReadFile(s, "secret/sparse")
		if err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAuditEpochMonotonic(t *testing.T) {
	a := NewLocalAudit()
	var root [32]byte
	if err := a.AdvanceRoot("f", 1, root); err != nil {
		t.Fatal(err)
	}
	if err := a.AdvanceRoot("f", 1, root); err == nil {
		t.Fatal("repeated epoch accepted")
	}
	if err := a.AdvanceRoot("f", 0, root); err == nil {
		t.Fatal("regressing epoch accepted")
	}
	if err := a.AdvanceRoot("f", 5, root); err != nil {
		t.Fatal(err)
	}
	epoch, _, ok, err := a.CheckRoot("f")
	if err != nil || !ok || epoch != 5 {
		t.Fatalf("CheckRoot = %d %v %v", epoch, ok, err)
	}
}

func TestRecreateCannotReplayEpoch(t *testing.T) {
	inner := fsapi.NewMem()
	audit := NewLocalAudit()
	s := newTestShield(t, inner, func(c *Config) { c.Audit = audit })
	if err := fsapi.WriteFile(s, "secret/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := fsapi.WriteFile(s, "secret/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Recreating continues the epoch sequence: the audit service must not
	// see a regression.
	if err := fsapi.WriteFile(s, "secret/f", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	got, err := fsapi.ReadFile(s, "secret/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v3" {
		t.Fatalf("got %q", got)
	}
}

func TestFSConformanceUnderEveryLevel(t *testing.T) {
	// The shield must be indistinguishable from a plain file system to
	// the application (the transparency goal), at every protection
	// level — the conformance suite writes under unruled paths too.
	for _, prefix := range []string{"secret/", "signed/", "plain/", ""} {
		t.Run("prefix="+prefix, func(t *testing.T) {
			shield := newTestShield(t, fsapi.NewMem())
			fstest.Conformance(t, prefixFS{inner: shield, prefix: prefix})
		})
	}
}

// prefixFS maps the conformance suite's paths under a shield prefix.
type prefixFS struct {
	inner  fsapi.FS
	prefix string
}

func (p prefixFS) Open(name string) (fsapi.File, error) {
	f, err := p.inner.Open(p.prefix + name)
	if err != nil {
		return nil, err
	}
	return prefixFile{File: f, prefix: p.prefix}, nil
}

func (p prefixFS) Create(name string) (fsapi.File, error) {
	f, err := p.inner.Create(p.prefix + name)
	if err != nil {
		return nil, err
	}
	return prefixFile{File: f, prefix: p.prefix}, nil
}

// prefixFile strips the mapping prefix from Name so the conformance
// suite sees the paths it opened.
type prefixFile struct {
	fsapi.File
	prefix string
}

func (f prefixFile) Name() string           { return strings.TrimPrefix(f.File.Name(), f.prefix) }
func (p prefixFS) Remove(name string) error { return p.inner.Remove(p.prefix + name) }
func (p prefixFS) Rename(oldName, newName string) error {
	return p.inner.Rename(p.prefix+oldName, p.prefix+newName)
}
func (p prefixFS) Stat(name string) (fsapi.FileInfo, error) { return p.inner.Stat(p.prefix + name) }
func (p prefixFS) List(dir string) ([]string, error)        { return p.inner.List(p.prefix + dir) }
func (p prefixFS) MkdirAll(dir string) error                { return p.inner.MkdirAll(p.prefix + dir) }
