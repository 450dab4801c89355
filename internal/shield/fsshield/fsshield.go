// Package fsshield implements secureTF's file-system shield (paper §3.3):
// transparent chunk-level protection of files selected by path-prefix
// policy.
//
// For every protected file the shield stores two objects on the untrusted
// file system: the chunk data file (fixed-size AES-256-GCM chunks, or
// plaintext chunks with HMAC tags for authenticate-only prefixes) and a
// metadata file carrying the logical size, a per-file epoch and the
// per-chunk write counters. Metadata is authenticated (and encrypted for
// encrypt-level files) under a key derived from the volume key and the
// path, and its digest can be registered with an audit service — the CAS
// freshness mechanism — so that rolling the pair back to an older
// consistent snapshot is detected.
//
// The shield also performs the Iago-style sanity checks the paper
// describes: sizes, chunk lengths and counters returned by the untrusted
// OS are validated before use.
//
// An open file builds its chunk cipher (one AES-256-GCM, or one HMAC for
// authenticate-only files) once and seals and opens every chunk through
// it. A read that covers a whole chunk opens it straight into the
// reader's buffer: the chunk is verified but not cached, so reading a
// model whole allocates the model once, and a later read of that chunk
// reads and verifies it again. A read of part of a chunk goes through
// the chunk's plaintext cached in the file. Either way a chunk costs one
// host read, one crypto charge and one authentication check.
//
// A write that covers a whole chunk of a file Create made is sealed
// straight from the writer's buffer and reaches the host during the
// write, so writing a snapshot whole caches only its tail. That handle
// seals under a new generation (a new key) that only its Close writes
// into the metadata: dropped before Close, it leaves an empty file and a
// key nothing can derive again. Every other write — part of a chunk, or
// any chunk of a file Open found — is cached and sealed on Close, just
// before the metadata that records its write counter. Sealed earlier,
// under a key the host's metadata names, it would leave behind a counter
// the metadata does not record, for the next handle to use again, and a
// dropped in-place update would lose the previous version. Either way a
// chunk costs one counter bump, one crypto charge and one host write.
//
// Every name, and every rule prefix, is first made canonical
// (fsapi.Clean): the policy and the keys see a name as the host file
// system resolves it, and a name that climbs out of the root is refused.
package fsshield

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
)

// Level is the protection level applied to a path prefix.
type Level int

const (
	// LevelPassthrough leaves files untouched.
	LevelPassthrough Level = iota + 1
	// LevelAuthenticated stores plaintext chunks with per-chunk MACs:
	// tampering is detected but contents are readable.
	LevelAuthenticated
	// LevelEncrypted stores AES-256-GCM chunks: confidentiality and
	// integrity.
	LevelEncrypted
)

// String names the level for logs.
func (l Level) String() string {
	switch l {
	case LevelPassthrough:
		return "passthrough"
	case LevelAuthenticated:
		return "authenticated"
	case LevelEncrypted:
		return "encrypted"
	default:
		return "invalid"
	}
}

// Rule maps a path prefix to a protection level. A prefix covers the
// names at or under it, element by element ("secret/" covers
// "secret/a" but not "secretive"), and the longest covering prefix
// wins.
type Rule struct {
	Prefix string
	Level  Level
}

// Shield errors.
var (
	// ErrTampered reports failed authentication of file contents or
	// metadata.
	ErrTampered = errors.New("fsshield: file tampered")
	// ErrRolledBack reports a file whose epoch is older than the audit
	// service's record — a rollback attack.
	ErrRolledBack = errors.New("fsshield: rollback detected")
	// ErrIago reports an inconsistent value returned by the untrusted
	// host (size, chunk length or offset out of bounds).
	ErrIago = errors.New("fsshield: untrusted host returned inconsistent state")
)

// Meter charges the shield's cryptographic work. Implemented by
// sgx.Enclave via EnclaveMeter; a nil Meter charges nothing.
type Meter interface {
	// Crypto charges AES/HMAC processing of n bytes.
	Crypto(n int64)
}

// AuditService records per-file epochs and roots so rollbacks of the
// (data, metadata) pair are detected. The CAS implements this remotely;
// LocalAudit implements it in-process.
type AuditService interface {
	// AdvanceRoot records that path moved to the given epoch with the
	// given metadata digest. Epochs must be strictly increasing.
	AdvanceRoot(path string, epoch uint64, root [32]byte) error
	// CheckRoot returns the recorded epoch and digest for path. ok is
	// false if the path has never been registered.
	CheckRoot(path string) (epoch uint64, root [32]byte, ok bool, err error)
}

// Config configures a Shield.
type Config struct {
	// Inner is the untrusted file system to protect. Required.
	Inner fsapi.FS
	// VolumeKey is the volume master key, provisioned by the CAS.
	VolumeKey seccrypto.Key
	// Rules is the path-prefix policy. Paths matching no rule pass
	// through.
	Rules []Rule
	// ChunkSize overrides the default 64 KiB chunk size.
	ChunkSize int
	// Meter charges crypto costs; nil charges nothing.
	Meter Meter
	// Audit, when set, receives epoch advances and is consulted on open
	// for freshness. Nil disables rollback protection.
	Audit AuditService
}

// DefaultChunkSize is the shield's chunk granularity.
const DefaultChunkSize = 64 << 10

// Shield is a protected view over an untrusted file system. It implements
// fsapi.FS.
type Shield struct {
	cfg Config
}

var _ fsapi.FS = (*Shield)(nil)

// New creates a Shield.
func New(cfg Config) (*Shield, error) {
	if cfg.Inner == nil {
		return nil, fmt.Errorf("fsshield: Config.Inner is required")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	rules := make([]Rule, len(cfg.Rules))
	for i, r := range cfg.Rules {
		switch r.Level {
		case LevelPassthrough, LevelAuthenticated, LevelEncrypted:
		default:
			return nil, fmt.Errorf("fsshield: rule %q has invalid level %d", r.Prefix, int(r.Level))
		}
		prefix, err := canon(r.Prefix)
		if err != nil {
			return nil, fmt.Errorf("fsshield: rule %q: %w", r.Prefix, err)
		}
		rules[i] = Rule{Prefix: prefix, Level: r.Level}
	}
	cfg.Rules = rules
	return &Shield{cfg: cfg}, nil
}

// canon is the shield's one name rule, applied to every name it is
// given and to every rule prefix: the name as the inner file system
// resolves it (fsapi.Clean), or an error for one that climbs out of the
// root. The policy and the key derivations see only canonical names, so
// two spellings of one host file ("secret/a", "./secret/a",
// "secret//a") get one level and one set of keys.
func canon(name string) (string, error) { return fsapi.Clean(name) }

// LevelFor returns the protection level for a path: that of the longest
// rule prefix covering its canonical form, or passthrough. A name the
// shield refuses has no level and reports the zero Level.
func (s *Shield) LevelFor(path string) Level {
	name, err := canon(path)
	if err != nil {
		return 0
	}
	return s.levelFor(name)
}

// levelFor is LevelFor on a canonical name.
func (s *Shield) levelFor(name string) Level {
	best := LevelPassthrough
	bestLen := -1
	for _, r := range s.cfg.Rules {
		if covers(r.Prefix, name) && len(r.Prefix) > bestLen {
			best = r.Level
			bestLen = len(r.Prefix)
		}
	}
	return best
}

// covers reports whether the canonical prefix covers the canonical name
// on whole path elements. The root ("") covers every name.
func covers(prefix, name string) bool {
	return prefix == "" || name == prefix ||
		len(name) > len(prefix) && name[len(prefix)] == '/' && strings.HasPrefix(name, prefix)
}

// metaKey derives the per-path metadata key from the volume key. It is
// stable across file incarnations so metadata can always be opened.
func (s *Shield) metaKey(path string) seccrypto.Key {
	return seccrypto.HKDF(s.cfg.VolumeKey[:], "fsshield-meta-v1", path)
}

// chunkKey derives the chunk encryption key for one file incarnation: the
// random generation salt guarantees a fresh key whenever the file is
// recreated, so (key, nonce) pairs never repeat across incarnations and
// replayed old-incarnation chunks fail authentication.
func (s *Shield) chunkKey(path string, generation [16]byte) seccrypto.Key {
	return seccrypto.HKDF(append(s.cfg.VolumeKey[:], generation[:]...), "fsshield-chunk-v1", path)
}

const metaSuffix = ".sfsmeta"

// Open implements fsapi.FS.
func (s *Shield) Open(name string) (fsapi.File, error) {
	name, err := canon(name)
	if err != nil {
		return nil, err
	}
	level := s.levelFor(name)
	if level == LevelPassthrough {
		return s.cfg.Inner.Open(name)
	}
	meta, err := s.loadMeta(name, level)
	if err != nil {
		return nil, err
	}
	data, err := s.cfg.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return newShieldFile(s, name, level, data, meta), nil
}

// Create implements fsapi.FS.
func (s *Shield) Create(name string) (fsapi.File, error) {
	name, err := canon(name)
	if err != nil {
		return nil, err
	}
	level := s.levelFor(name)
	if level == LevelPassthrough {
		return s.cfg.Inner.Create(name)
	}
	data, err := s.cfg.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	meta, err := newMetadata(level, s.cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	// If the audit service already has an epoch for this path (a previous
	// incarnation), continue from there so the truncate-and-recreate
	// sequence cannot be replayed.
	if s.cfg.Audit != nil {
		epoch, _, ok, err := s.cfg.Audit.CheckRoot(name)
		if err != nil {
			return nil, fmt.Errorf("fsshield: audit check for %q: %w", name, err)
		}
		if ok {
			meta.Epoch = epoch
		}
	}
	f := newShieldFile(s, name, level, data, meta)
	if err := f.flush(); err != nil {
		return nil, err
	}
	// The metadata just written makes the empty file exist. The handle
	// seals under a new generation that only its Close records, so a
	// chunk it writes before then uses a key no later handle derives.
	if err := f.meta.newGeneration(); err != nil {
		return nil, err
	}
	f.keyChunks()
	f.sealAtWrite = true
	return f, nil
}

// Remove implements fsapi.FS.
func (s *Shield) Remove(name string) error {
	name, err := canon(name)
	if err != nil {
		return err
	}
	if s.levelFor(name) == LevelPassthrough {
		return s.cfg.Inner.Remove(name)
	}
	if err := s.cfg.Inner.Remove(name); err != nil {
		return err
	}
	// Best-effort: a missing meta file is not an error once data is gone.
	if err := s.cfg.Inner.Remove(name + metaSuffix); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
		return err
	}
	return nil
}

// Rename implements fsapi.FS. Renaming across protection levels or of
// protected files changes the key derivation path, so the shield
// re-encrypts by copy.
func (s *Shield) Rename(oldName, newName string) error {
	oldName, err := canon(oldName)
	if err != nil {
		return err
	}
	newName, err = canon(newName)
	if err != nil {
		return err
	}
	oldLevel, newLevel := s.levelFor(oldName), s.levelFor(newName)
	if oldLevel == LevelPassthrough && newLevel == LevelPassthrough {
		return s.cfg.Inner.Rename(oldName, newName)
	}
	data, err := fsapi.ReadFile(s, oldName)
	if err != nil {
		return fmt.Errorf("fsshield: rename read %q: %w", oldName, err)
	}
	if err := fsapi.WriteFile(s, newName, data); err != nil {
		return fmt.Errorf("fsshield: rename write %q: %w", newName, err)
	}
	return s.Remove(oldName)
}

// Stat implements fsapi.FS, reporting the logical (plaintext) size for
// protected files.
func (s *Shield) Stat(name string) (fsapi.FileInfo, error) {
	name, err := canon(name)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	level := s.levelFor(name)
	if level == LevelPassthrough {
		return s.cfg.Inner.Stat(name)
	}
	meta, err := s.loadMeta(name, level)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	return fsapi.FileInfo{Name: name, Size: meta.FileSize}, nil
}

// List implements fsapi.FS, hiding shield metadata files.
func (s *Shield) List(dir string) ([]string, error) {
	dir, err := canon(dir)
	if err != nil {
		return nil, err
	}
	names, err := s.cfg.Inner.List(dir)
	if err != nil {
		return nil, err
	}
	out := names[:0]
	for _, n := range names {
		if !strings.HasSuffix(n, metaSuffix) {
			out = append(out, n)
		}
	}
	return out, nil
}

// MkdirAll implements fsapi.FS.
func (s *Shield) MkdirAll(dir string) error {
	dir, err := canon(dir)
	if err != nil {
		return err
	}
	return s.cfg.Inner.MkdirAll(dir)
}

// loadMeta reads, authenticates and freshness-checks a file's metadata.
func (s *Shield) loadMeta(name string, level Level) (*metadata, error) {
	raw, err := fsapi.ReadFile(s.cfg.Inner, name+metaSuffix)
	if err != nil {
		if errors.Is(err, fsapi.ErrNotExist) {
			// Data without metadata (or no file at all): if the data file
			// exists this is tampering, otherwise a clean not-exist.
			if _, statErr := s.cfg.Inner.Stat(name); statErr == nil {
				return nil, fmt.Errorf("%w: %q has data but no metadata", ErrTampered, name)
			}
			return nil, fmt.Errorf("fsshield: open %q: %w", name, fsapi.ErrNotExist)
		}
		return nil, err
	}
	s.chargeCrypto(int64(len(raw)))
	meta, err := decodeMetadata(raw, s.metaKey(name), name, level)
	if err != nil {
		return nil, err
	}
	if meta.ChunkSize != uint32(s.cfg.ChunkSize) {
		// Honour the on-disk chunk size; it was authenticated.
		if meta.ChunkSize == 0 {
			return nil, fmt.Errorf("%w: %q has zero chunk size", ErrIago, name)
		}
	}
	if s.cfg.Audit != nil {
		epoch, root, ok, err := s.cfg.Audit.CheckRoot(name)
		if err != nil {
			return nil, fmt.Errorf("fsshield: audit check for %q: %w", name, err)
		}
		if ok {
			if meta.Epoch < epoch {
				return nil, fmt.Errorf("%w: %q at epoch %d, audit service records %d", ErrRolledBack, name, meta.Epoch, epoch)
			}
			if meta.Epoch == epoch && sha256.Sum256(raw) != root {
				return nil, fmt.Errorf("%w: %q metadata differs from audited root at epoch %d", ErrRolledBack, name, epoch)
			}
		}
	}
	return meta, nil
}

func (s *Shield) chargeCrypto(n int64) {
	if s.cfg.Meter != nil && n > 0 {
		s.cfg.Meter.Crypto(n)
	}
}
