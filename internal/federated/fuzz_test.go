package federated

import (
	"testing"

	"github.com/securetf/securetf/internal/tf/dist"
)

// FuzzMaskedUpdate fuzzes the masked-update blob parser the coordinator
// runs on attacker-reachable input: truncated, bit-flipped and
// fabricated payloads must produce an error — never a panic, and never
// an allocation driven by an attacker-controlled count (the word count
// is validated against the expected manifest size, and the parser
// returns the blob's own bytes without sizing anything from it).
func FuzzMaskedUpdate(f *testing.F) {
	codecs := []ringCodec{{dist.NoCompression()}, {dist.Int8Compression()}, {dist.TopKCompression(0.5)}}
	for _, c := range codecs {
		neg := int64(-3)
		blob := testBlob(c, []uint64{0, 1, uint64(neg), 0x7fff, ^uint64(0)})
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		flipped := append([]byte(nil), blob...)
		flipped[2] ^= 0x40 // perturb the count field
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, c := range codecs {
			for _, want := range []int{0, 5, 1 << 20} {
				words, err := c.parseUpdate(payload, want)
				if err != nil {
					continue
				}
				if len(words) != want*c.width() {
					t.Fatalf("%v: parse returned %d bytes of words, caller expected %d words", c, len(words), want)
				}
				// A payload that parses must re-marshal to the same bytes —
				// the parser accepted exactly the canonical encoding.
				back := make([]byte, c.blobSize(want))
				copy(back[updateHeader:], words)
				c.marshalUpdate(back)
				if string(back) != string(payload) {
					t.Fatalf("%v: accepted a non-canonical %d-byte encoding", c, len(payload))
				}
			}
		}
	})
}
