package fsshield

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"github.com/securetf/securetf/internal/seccrypto"
)

// metadata is the in-enclave record for one protected file: logical size,
// the file epoch (bumped on every flush), a random per-incarnation
// generation salt, and per-chunk write counters. Counters feed chunk
// nonces/AADs so every rewrite of a chunk produces a distinct ciphertext
// that cannot be swapped with an older one; the generation salt is folded
// into the chunk key so recreating a file can never reuse a (key, nonce)
// pair from a previous incarnation, and old-incarnation ciphertexts fail
// authentication outright.
type metadata struct {
	Level      Level
	ChunkSize  uint32
	FileSize   int64
	Epoch      uint64
	Generation [16]byte
	Counters   []uint64 // one per chunk
}

func newMetadata(level Level, chunkSize int) (*metadata, error) {
	m := &metadata{Level: level, ChunkSize: uint32(chunkSize)}
	if err := m.newGeneration(); err != nil {
		return nil, err
	}
	return m, nil
}

// newGeneration draws a fresh random generation salt.
func (m *metadata) newGeneration() error {
	if _, err := rand.Read(m.Generation[:]); err != nil {
		return fmt.Errorf("fsshield: generating file generation: %w", err)
	}
	return nil
}

// ensureChunks grows the counter table to n chunks.
func (m *metadata) ensureChunks(n int) {
	for len(m.Counters) < n {
		m.Counters = append(m.Counters, 0)
	}
}

const (
	metaMagic   = "SFM1"
	metaAADTag  = "fsshield-meta-v1"
	chunkAADTag = "fsshield-chunk-v1"
)

// encodeMetadata serializes and protects the metadata. The epoch travels
// in the clear (the loader needs it for the AAD) but is bound by the
// authentication tag, and for encrypt-level files the body is encrypted.
func encodeMetadata(m *metadata, key seccrypto.Key, path string) ([]byte, error) {
	var body bytes.Buffer
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], m.ChunkSize)
	body.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:], uint64(m.FileSize))
	body.Write(scratch[:])
	body.Write(m.Generation[:])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(m.Counters)))
	body.Write(scratch[:4])
	for _, c := range m.Counters {
		binary.LittleEndian.PutUint64(scratch[:], c)
		body.Write(scratch[:])
	}

	aad := metaAAD(path, m.Level, m.Epoch)
	var payload []byte
	switch m.Level {
	case LevelEncrypted:
		sealed, err := seccrypto.Seal(key, body.Bytes(), aad)
		if err != nil {
			return nil, fmt.Errorf("fsshield: sealing metadata for %q: %w", path, err)
		}
		payload = sealed
	case LevelAuthenticated:
		mac := hmac.New(sha256.New, key[:])
		mac.Write(aad)
		mac.Write(body.Bytes())
		payload = append(body.Bytes(), mac.Sum(nil)...)
	default:
		return nil, fmt.Errorf("fsshield: cannot encode metadata at level %v", m.Level)
	}

	out := make([]byte, 0, 4+1+8+4+len(payload))
	out = append(out, metaMagic...)
	out = append(out, byte(m.Level))
	binary.LittleEndian.PutUint64(scratch[:], m.Epoch)
	out = append(out, scratch[:]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(payload)))
	out = append(out, scratch[:4]...)
	out = append(out, payload...)
	return out, nil
}

// decodeMetadata authenticates and parses a metadata file.
func decodeMetadata(raw []byte, key seccrypto.Key, path string, wantLevel Level) (*metadata, error) {
	if len(raw) < 4+1+8+4 {
		return nil, fmt.Errorf("%w: metadata for %q truncated", ErrTampered, path)
	}
	if string(raw[:4]) != metaMagic {
		return nil, fmt.Errorf("%w: metadata for %q has bad magic", ErrTampered, path)
	}
	level := Level(raw[4])
	if level != wantLevel {
		return nil, fmt.Errorf("%w: metadata for %q declares level %v, policy requires %v", ErrTampered, path, level, wantLevel)
	}
	epoch := binary.LittleEndian.Uint64(raw[5:13])
	plen := binary.LittleEndian.Uint32(raw[13:17])
	payload := raw[17:]
	if int(plen) != len(payload) {
		return nil, fmt.Errorf("%w: metadata for %q length mismatch", ErrIago, path)
	}

	aad := metaAAD(path, level, epoch)
	var body []byte
	switch level {
	case LevelEncrypted:
		pt, err := seccrypto.Open(key, payload, aad)
		if err != nil {
			return nil, fmt.Errorf("%w: metadata for %q failed authentication", ErrTampered, path)
		}
		body = pt
	case LevelAuthenticated:
		if len(payload) < sha256.Size {
			return nil, fmt.Errorf("%w: metadata for %q too short for MAC", ErrTampered, path)
		}
		body = payload[:len(payload)-sha256.Size]
		tag := payload[len(payload)-sha256.Size:]
		mac := hmac.New(sha256.New, key[:])
		mac.Write(aad)
		mac.Write(body)
		if !hmac.Equal(tag, mac.Sum(nil)) {
			return nil, fmt.Errorf("%w: metadata for %q failed authentication", ErrTampered, path)
		}
	default:
		return nil, fmt.Errorf("%w: metadata for %q has invalid level", ErrTampered, path)
	}

	const fixed = 4 + 8 + 16 + 4
	if len(body) < fixed {
		return nil, fmt.Errorf("%w: metadata body for %q truncated", ErrTampered, path)
	}
	m := &metadata{Level: level, Epoch: epoch}
	m.ChunkSize = binary.LittleEndian.Uint32(body[0:4])
	m.FileSize = int64(binary.LittleEndian.Uint64(body[4:12]))
	copy(m.Generation[:], body[12:28])
	n := binary.LittleEndian.Uint32(body[28:32])
	if m.ChunkSize == 0 || m.FileSize < 0 {
		return nil, fmt.Errorf("%w: metadata for %q has invalid geometry", ErrIago, path)
	}
	if len(body) != fixed+int(n)*8 {
		return nil, fmt.Errorf("%w: metadata for %q counter table mismatch", ErrIago, path)
	}
	// The counter table may exceed the current chunk count (counters are
	// high-water marks across truncations) but never undershoot it.
	want := (m.FileSize + int64(m.ChunkSize) - 1) / int64(m.ChunkSize)
	if int64(n) < want {
		return nil, fmt.Errorf("%w: metadata for %q declares %d chunks for %d bytes", ErrIago, path, n, m.FileSize)
	}
	m.Counters = make([]uint64, n)
	for i := range m.Counters {
		m.Counters[i] = binary.LittleEndian.Uint64(body[fixed+i*8:])
	}
	return m, nil
}

func metaAAD(path string, level Level, epoch uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(metaAADTag)
	buf.WriteByte(0)
	buf.WriteString(path)
	buf.WriteByte(0)
	buf.WriteByte(byte(level))
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], epoch)
	buf.Write(e[:])
	return buf.Bytes()
}

// chunkAAD binds a chunk ciphertext to its file, index and write counter.
func chunkAAD(path string, index int64, counter uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(chunkAADTag)
	buf.WriteByte(0)
	buf.WriteString(path)
	buf.WriteByte(0)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(index))
	binary.LittleEndian.PutUint64(b[8:16], counter)
	buf.Write(b[:])
	return buf.Bytes()
}

// chunkNonce derives a deterministic GCM nonce from chunk index and write
// counter. The pair is unique per file key for the life of the file, so
// nonces never repeat under a key.
func chunkNonce(index int64, counter uint64) [12]byte {
	var n [12]byte
	binary.LittleEndian.PutUint32(n[0:4], uint32(uint64(index)))
	binary.LittleEndian.PutUint64(n[4:12], counter)
	return n
}
