package fsshield

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
	"github.com/securetf/securetf/internal/seccrypto"
)

// FuzzFSMeta fuzzes the metadata body behind the MAC. The host stores
// the metadata file, so its bytes are hostile — but a body the fuzzer
// mutates in place never passes authentication, and the parser would go
// unexercised. So each input is sealed at LevelAuthenticated under a
// fixed key first, the way a host that had the key (or a bug that signed
// a bad body) would present it. decodeMetadata must refuse it with
// ErrTampered or ErrIago, or decode a value that encodeMetadata writes
// back byte for byte.
func FuzzFSMeta(f *testing.F) {
	const path = "signed/f"
	inner := fsapi.NewMem()
	s := newTestShield(f, inner, func(c *Config) { c.VolumeKey = seccrypto.Key{1, 2, 3} })
	if err := fsapi.WriteFile(s, path, bytes.Repeat([]byte("x"), 1000)); err != nil {
		f.Fatal(err)
	}
	onDisk, err := fsapi.ReadFile(inner, path+metaSuffix)
	if err != nil {
		f.Fatal(err)
	}
	key := s.metaKey(path)
	const header = 4 + 1 + 8 + 4
	epoch := binary.LittleEndian.Uint64(onDisk[5:13])
	seal := func(body []byte) []byte {
		mac := hmac.New(sha256.New, key[:])
		mac.Write(metaAAD(path, LevelAuthenticated, epoch))
		mac.Write(body)
		raw := append([]byte(metaMagic), byte(LevelAuthenticated))
		raw = binary.LittleEndian.AppendUint64(raw, epoch)
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(body)+sha256.Size))
		return mac.Sum(append(raw, body...))
	}
	real := onDisk[header : len(onDisk)-sha256.Size]
	if !bytes.Equal(seal(real), onDisk) {
		f.Fatal("the fuzz target's sealing does not reproduce encodeMetadata's bytes")
	}
	f.Add(real)
	f.Add(real[:len(real)-8]) // counter table one short of its count
	f.Add(real[:20])          // inside the fixed fields

	f.Fuzz(func(t *testing.T, body []byte) {
		raw := seal(body)
		m, err := decodeMetadata(raw, key, path, LevelAuthenticated)
		if err != nil {
			if !errors.Is(err, ErrTampered) && !errors.Is(err, ErrIago) {
				t.Fatalf("refused with an untyped error: %v", err)
			}
			return
		}
		re, err := encodeMetadata(m, key, path)
		if err != nil {
			t.Fatalf("decoded metadata does not re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("decoded metadata re-encodes to % x, read from % x", re, raw)
		}
	})
}
