package fsshield

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
)

// shieldFile is an open protected file. It builds its chunk cipher (or
// MAC) once, when it is opened. A read that covers a whole chunk opens
// it straight into the reader's buffer and leaves it uncached. In a
// file Create made, a write that covers a whole chunk seals it straight
// from the writer's buffer, with a bumped write counter, and writes it
// to the host at once. Any other access decrypts the chunk into a cache
// slot in (enclave) memory; such dirty chunks are sealed with bumped
// write counters and written on Close.
//
// Like os.File, a shieldFile must not be used concurrently.
type shieldFile struct {
	shield *Shield
	path   string
	level  Level
	data   fsapi.File
	meta   *metadata
	// sealAtWrite is set in a file Create made: its generation is on
	// the host only from Close on, so a whole chunk written to it goes
	// to the host at once. A file Open found caches every write.
	sealAtWrite bool
	aead        *seccrypto.AEAD // LevelEncrypted's chunk cipher
	mac         hash.Hash       // LevelAuthenticated's chunk MAC
	// stored holds one chunk as the untrusted file stores it: read into
	// before it is opened, sealed into before it is written.
	stored []byte

	cache  map[int64][]byte
	dirty  map[int64]bool
	off    int64
	closed bool
}

var _ fsapi.File = (*shieldFile)(nil)

func newShieldFile(s *Shield, path string, level Level, data fsapi.File, meta *metadata) *shieldFile {
	f := &shieldFile{
		shield: s,
		path:   path,
		level:  level,
		data:   data,
		meta:   meta,
		cache:  make(map[int64][]byte),
		dirty:  make(map[int64]bool),
	}
	f.keyChunks()
	return f
}

// keyChunks builds the chunk cipher (or MAC) of the file's generation.
func (f *shieldFile) keyChunks() {
	key := f.shield.chunkKey(f.path, f.meta.Generation)
	switch f.level {
	case LevelEncrypted:
		f.aead = seccrypto.NewAEAD(key)
	case LevelAuthenticated:
		f.mac = hmac.New(sha256.New, key[:])
	}
}

// overhead is the per-chunk storage overhead for this file's level.
func (f *shieldFile) overhead() int64 {
	if f.level == LevelEncrypted {
		return seccrypto.Overhead // GCM tag
	}
	return sha256.Size // HMAC tag
}

func (f *shieldFile) chunkSize() int64 { return int64(f.meta.ChunkSize) }
func (f *shieldFile) slotSize() int64  { return f.chunkSize() + f.overhead() }

// plainLen returns the plaintext length of chunk i given the logical file
// size.
func (f *shieldFile) plainLen(i int64) int64 {
	start := i * f.chunkSize()
	if start >= f.meta.FileSize {
		return 0
	}
	n := f.meta.FileSize - start
	if n > f.chunkSize() {
		n = f.chunkSize()
	}
	return n
}

// storedBuf returns the file's stored-chunk buffer at length n, which
// it grows to fit. A file of one short chunk keeps a short buffer.
func (f *shieldFile) storedBuf(n int64) []byte {
	if int64(cap(f.stored)) < n {
		f.stored = make([]byte, n)
	}
	return f.stored[:n]
}

// readChunk reads chunk i from the untrusted file, checks it and opens
// its plaintext into dst, which has room for plainLen(i) > 0 bytes: the
// reader's buffer when a read covers the whole chunk, its cache slot
// otherwise. It is the one place a chunk is read: one host ReadAt, the
// Iago length check, one crypto charge and the authentication check.
func (f *shieldFile) readChunk(i int64, dst []byte) error {
	plain := f.plainLen(i)
	stored := f.storedBuf(plain + f.overhead())
	n, err := f.data.ReadAt(stored, i*f.slotSize())
	if err != nil && err != io.EOF {
		return fmt.Errorf("fsshield: reading chunk %d of %q: %w", i, f.path, err)
	}
	if int64(n) != int64(len(stored)) {
		// Iago check: the host returned fewer bytes than the
		// authenticated metadata says must exist.
		return fmt.Errorf("%w: chunk %d of %q is %d bytes, metadata requires %d", ErrIago, i, f.path, n, len(stored))
	}
	f.shield.chargeCrypto(int64(len(stored)))

	counter := f.meta.Counters[i]
	aad := chunkAAD(f.path, i, counter)
	switch f.level {
	case LevelEncrypted:
		if _, err := f.aead.Open(dst[:0], chunkNonce(i, counter), stored, aad); err != nil {
			return fmt.Errorf("%w: chunk %d of %q failed authentication", ErrTampered, i, f.path)
		}
	case LevelAuthenticated:
		body := stored[:plain]
		tag := stored[plain:]
		f.mac.Reset()
		f.mac.Write(aad)
		f.mac.Write(body)
		if !hmac.Equal(tag, f.mac.Sum(nil)) {
			return fmt.Errorf("%w: chunk %d of %q failed authentication", ErrTampered, i, f.path)
		}
		copy(dst, body)
	default:
		return fmt.Errorf("fsshield: invalid level %v", f.level)
	}
	return nil
}

// loadChunk returns the plaintext of chunk i, reading and verifying it
// into its cache slot if not cached.
func (f *shieldFile) loadChunk(i int64) ([]byte, error) {
	if c, ok := f.cache[i]; ok {
		return c, nil
	}
	plain := f.plainLen(i)
	if plain == 0 {
		buf := make([]byte, 0, f.chunkSize())
		f.cache[i] = buf
		return buf, nil
	}
	buf := make([]byte, plain)
	if err := f.readChunk(i, buf); err != nil {
		return nil, err
	}
	f.cache[i] = buf
	return buf, nil
}

// ReadAt implements io.ReaderAt over the plaintext view.
func (f *shieldFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("fsshield: %q is closed", f.path)
	}
	if off < 0 {
		return 0, fmt.Errorf("fsshield: negative offset")
	}
	total := 0
	for total < len(p) && off < f.meta.FileSize {
		i := off / f.chunkSize()
		rel := off - i*f.chunkSize()
		chunk, cached := f.cache[i]
		if !cached {
			if plain := f.plainLen(i); rel == 0 && int64(len(p)-total) >= plain {
				// The read covers the whole chunk: open it into p.
				if err := f.readChunk(i, p[total:total+int(plain)]); err != nil {
					return total, err
				}
				total += int(plain)
				off += plain
				continue
			}
			var err error
			if chunk, err = f.loadChunk(i); err != nil {
				return total, err
			}
		}
		if rel >= int64(len(chunk)) {
			break
		}
		n := copy(p[total:], chunk[rel:])
		total += n
		off += int64(n)
	}
	if total < len(p) {
		return total, io.EOF
	}
	return total, nil
}

// WriteAt implements io.WriterAt over the plaintext view, growing the
// file (zero-filled) as needed.
func (f *shieldFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fmt.Errorf("fsshield: %q is closed", f.path)
	}
	if off < 0 {
		return 0, fmt.Errorf("fsshield: negative offset")
	}
	// Writing past EOF zero-fills the gap first so every chunk up to the
	// write is materialized and flushed.
	if off > f.meta.FileSize {
		if err := f.Truncate(off); err != nil {
			return 0, err
		}
	}
	total := 0
	for total < len(p) {
		at := off + int64(total)
		i := at / f.chunkSize()
		rel := at - i*f.chunkSize()
		if whole := p[total:]; f.sealAtWrite && rel == 0 && int64(len(whole)) >= f.chunkSize() {
			// A whole chunk of a created file: seal it from p, write it
			// to the host and cache nothing.
			if err := f.sealChunk(i, f.bump(i), whole[:f.chunkSize()]); err != nil {
				return total, err
			}
			delete(f.cache, i)
			delete(f.dirty, i)
			total += int(f.chunkSize())
			f.meta.FileSize = max(f.meta.FileSize, at+f.chunkSize())
			continue
		}
		chunk, err := f.loadChunk(i)
		if err != nil {
			return total, err
		}
		end := rel + int64(len(p)-total)
		if end > f.chunkSize() {
			end = f.chunkSize()
		}
		chunk = f.grow(i, chunk, end)
		n := copy(chunk[rel:end], p[total:])
		f.dirty[i] = true
		total += n
		if newEnd := i*f.chunkSize() + int64(len(chunk)); newEnd > f.meta.FileSize {
			f.meta.FileSize = newEnd
		}
	}
	return total, nil
}

// grow extends chunk i's cached plaintext to n ≤ chunkSize bytes and
// returns it. It grows in place while the buffer has the capacity, and
// into a buffer of a whole chunk's capacity otherwise. The bytes it adds
// read zero: past its length a buffer may hold what was there before a
// Truncate shortened it.
func (f *shieldFile) grow(i int64, chunk []byte, n int64) []byte {
	old := int64(len(chunk))
	switch {
	case old >= n:
		return chunk
	case int64(cap(chunk)) >= n:
		chunk = chunk[:n]
		clear(chunk[old:])
	default:
		grown := make([]byte, n, f.chunkSize())
		copy(grown, chunk)
		chunk = grown
	}
	f.cache[i] = chunk
	return chunk
}

// Read implements io.Reader at the file's seek offset.
func (f *shieldFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	if n > 0 && err == io.EOF {
		return n, nil
	}
	return n, err
}

// Write implements io.Writer at the file's seek offset.
func (f *shieldFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// Seek implements io.Seeker over the plaintext view.
func (f *shieldFile) Seek(off int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = f.meta.FileSize
	default:
		return 0, fmt.Errorf("fsshield: invalid whence %d", whence)
	}
	if base+off < 0 {
		return 0, fmt.Errorf("fsshield: negative seek")
	}
	f.off = base + off
	return f.off, nil
}

// Truncate changes the logical size. Shrinking to mid-chunk loads the
// boundary chunk first so its tail can be discarded and re-authenticated.
func (f *shieldFile) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("fsshield: negative truncate size")
	}
	switch {
	case size == f.meta.FileSize:
		return nil
	case size < f.meta.FileSize:
		boundary := size / f.chunkSize()
		rel := size - boundary*f.chunkSize()
		if rel > 0 {
			chunk, err := f.loadChunk(boundary)
			if err != nil {
				return err
			}
			if int64(len(chunk)) > rel {
				f.cache[boundary] = chunk[:rel]
				f.dirty[boundary] = true
			}
		}
		// Drop cache and dirt beyond the new end.
		first := boundary
		if rel > 0 {
			first = boundary + 1
		}
		for i := range f.cache {
			if i >= first {
				delete(f.cache, i)
				delete(f.dirty, i)
			}
		}
		f.meta.FileSize = size
		// Counters are deliberately NOT trimmed: if the file grows again,
		// a re-written chunk must never reuse a (nonce, key) pair from a
		// previous incarnation.
	case size > f.meta.FileSize:
		// Zero-fill every chunk from the old end to the new one. A
		// boundary chunk that holds data is loaded first, at its old
		// length, so growing it keeps that data.
		old := f.meta.FileSize
		firstNew := old / f.chunkSize()
		if old > firstNew*f.chunkSize() {
			if _, err := f.loadChunk(firstNew); err != nil {
				return err
			}
		}
		f.meta.FileSize = size
		lastNew := (size - 1) / f.chunkSize()
		for i := firstNew; i <= lastNew; i++ {
			f.grow(i, f.cache[i], f.plainLen(i))
			f.dirty[i] = true
		}
	}
	return nil
}

// Size returns the logical file size.
func (f *shieldFile) Size() (int64, error) { return f.meta.FileSize, nil }

// Name returns the logical path.
func (f *shieldFile) Name() string { return f.path }

// Close flushes dirty chunks and metadata, advancing the file epoch and
// registering the new root with the audit service.
func (f *shieldFile) Close() error {
	if f.closed {
		return nil
	}
	if err := f.flush(); err != nil {
		return err
	}
	f.closed = true
	return f.data.Close()
}

// bump advances chunk i's write counter and returns it. A counter is
// sealed under only once it is recorded where no later handle can miss
// it: in metadata on the host (flush), or under a generation that only
// this handle's Close records (a created file's whole chunks).
func (f *shieldFile) bump(i int64) uint64 {
	f.meta.ensureChunks(int(i + 1))
	f.meta.Counters[i]++
	return f.meta.Counters[i]
}

// sealChunk seals plain as chunk i under counter into the file's
// stored-chunk buffer and writes it to the host: the data file's WriteAt
// does not keep what it is given (io.WriterAt). It is the one place a
// chunk is written: one crypto charge and one host WriteAt.
func (f *shieldFile) sealChunk(i int64, counter uint64, plain []byte) error {
	aad := chunkAAD(f.path, i, counter)
	f.shield.chargeCrypto(int64(len(plain)))

	stored := f.storedBuf(int64(len(plain)) + f.overhead())[:0]
	switch f.level {
	case LevelEncrypted:
		stored = f.aead.Seal(stored, chunkNonce(i, counter), plain, aad)
	case LevelAuthenticated:
		f.mac.Reset()
		f.mac.Write(aad)
		f.mac.Write(plain)
		stored = f.mac.Sum(append(stored, plain...))
	}
	if _, err := f.data.WriteAt(stored, i*f.slotSize()); err != nil {
		return fmt.Errorf("fsshield: writing chunk %d of %q: %w", i, f.path, err)
	}
	return nil
}

// flush bumps the counters of the dirty chunks, writes the metadata that
// records them and advances the audit root, and only then seals the
// chunks under those counters and trims the data file. A flush that
// fails before the metadata is on the host has sealed nothing, so the
// next handle, which bumps the same counters, reuses no nonce; one that
// fails after it leaves chunks that fail authentication.
func (f *shieldFile) flush() error {
	n := divCeil(f.meta.FileSize, f.chunkSize())
	f.meta.ensureChunks(int(n))
	for i := range n {
		if f.dirty[i] {
			f.bump(i)
		}
	}

	f.meta.Epoch++
	raw, err := encodeMetadata(f.meta, f.shield.metaKey(f.path), f.path)
	if err != nil {
		return err
	}
	f.shield.chargeCrypto(int64(len(raw)))
	if err := fsapi.WriteFile(f.shield.cfg.Inner, f.path+metaSuffix, raw); err != nil {
		return fmt.Errorf("fsshield: writing metadata for %q: %w", f.path, err)
	}
	if f.shield.cfg.Audit != nil {
		if err := f.shield.cfg.Audit.AdvanceRoot(f.path, f.meta.Epoch, sha256.Sum256(raw)); err != nil {
			return fmt.Errorf("fsshield: advancing audit root for %q: %w", f.path, err)
		}
	}

	for i := range n {
		if !f.dirty[i] {
			continue
		}
		chunk, err := f.loadChunk(i)
		if err != nil {
			return err
		}
		// Pad the cached buffer to the chunk's full plaintext length.
		if err := f.sealChunk(i, f.meta.Counters[i], f.grow(i, chunk, f.plainLen(i))); err != nil {
			return err
		}
		delete(f.dirty, i)
	}

	// Trim the data file to the exact stored size.
	storedSize := int64(0)
	if n > 0 {
		storedSize = (n-1)*f.slotSize() + f.plainLen(n-1) + f.overhead()
	}
	if err := f.data.Truncate(storedSize); err != nil {
		return fmt.Errorf("fsshield: truncating %q: %w", f.path, err)
	}
	return nil
}

func divCeil(a, b int64) int64 {
	if a == 0 {
		return 0
	}
	return (a + b - 1) / b
}
