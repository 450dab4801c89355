package federated

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/securetf/securetf/internal/tf/dist"
)

// packWords lays ring words out as a packed payload of the given width,
// truncating each to the ring.
func packWords(width int, words []uint64) []byte {
	payload := make([]byte, len(words)*width)
	for i, w := range words {
		if width == 2 {
			binary.LittleEndian.PutUint16(payload[2*i:], uint16(w))
		} else {
			binary.LittleEndian.PutUint64(payload[8*i:], w)
		}
	}
	return payload
}

// wordAt reads ring word i of a packed payload.
func wordAt(payload []byte, width, i int) uint64 {
	if width == 2 {
		return uint64(binary.LittleEndian.Uint16(payload[2*i:]))
	}
	return binary.LittleEndian.Uint64(payload[8*i:])
}

// testBlob marshals ring words into a complete update blob.
func testBlob(c ringCodec, words []uint64) []byte {
	blob := make([]byte, c.blobSize(len(words)))
	copy(blob[updateHeader:], packWords(c.width(), words))
	c.marshalUpdate(blob)
	return blob
}

// TestCodecValidate pins which dist.Compression policies a federated
// job accepts as its uplink codec, through the check NewClient and
// NewCoordinator run.
func TestCodecValidate(t *testing.T) {
	cases := []struct {
		name  string
		codec dist.Compression
		ok    bool
	}{
		{"none", dist.NoCompression(), true},
		{"int8", dist.Int8Compression(), true},
		{"topk", dist.TopKCompression(0.1), true},
		{"topk full", dist.TopKCompression(1), true},
		{"topk zero", dist.TopKCompression(0), false},
		{"topk above one", dist.TopKCompression(1.5), false},
		{"unknown kind", dist.Compression{Kind: 9}, false},
	}
	for _, tc := range cases {
		_, err := tc.codec.Canonical()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestCodecWireRoundTrip pins that the handshake's two codec fields
// carry each uplink codec exactly, and that a kind no job runs comes
// back as a policy no job accepts.
func TestCodecWireRoundTrip(t *testing.T) {
	for _, c := range []dist.Compression{dist.NoCompression(), dist.Int8Compression(), dist.TopKCompression(0.05)} {
		if back := dist.CompressionFromWire(c.Wire()); back != c {
			t.Fatalf("wire round trip changed the codec: %v vs %v", back, c)
		}
	}
	if _, err := dist.CompressionFromWire(7, 0).Canonical(); err == nil {
		t.Fatal("unknown wire codec kind accepted")
	}
}

func TestCoordsPattern(t *testing.T) {
	c := ringCodec{dist.TopKCompression(0.25)}
	coords := c.coords(42, "w", 100)
	if len(coords) != 25 {
		t.Fatalf("fraction 0.25 of 100 coordinates kept %d, want 25", len(coords))
	}
	seen := make(map[int]bool)
	last := -1
	for _, i := range coords {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("pattern produced invalid or duplicate coordinate %d", i)
		}
		if i <= last {
			t.Fatalf("pattern is not sorted: %d after %d", i, last)
		}
		seen[i] = true
		last = i
	}
	again := c.coords(42, "w", 100)
	for i := range coords {
		if coords[i] != again[i] {
			t.Fatal("pattern is not deterministic for a fixed seed")
		}
	}
	other := c.coords(42, "b", 100)
	same := true
	for i := range coords {
		if coords[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct variables produced identical patterns")
	}
	if n := len(c.coords(42, "w", 3)); n != 1 {
		t.Fatalf("fraction 0.25 of 3 coordinates kept %d, want at least 1", n)
	}
	if (ringCodec{dist.NoCompression()}).coords(42, "w", 100) != nil {
		t.Fatal("dense codec produced a sparse pattern")
	}
}

// TestEncodeConservation pins the error-feedback invariant at the codec
// level: over any number of rounds, the mass delivered on the wire plus
// the residual still held equals the total raw delta mass — nothing is
// silently lost to quantization or sparsification.
func TestEncodeConservation(t *testing.T) {
	for _, c := range []ringCodec{{dist.NoCompression()}, {dist.Int8Compression()}, {dist.TopKCompression(0.3)}} {
		const n = 40
		var total, delivered [n]float64
		residual, next := make([]float32, n), make([]float32, n)
		for round := 0; round < 5; round++ {
			delta := make([]float32, n)
			for i := range delta {
				delta[i] = float32(math.Sin(float64(round*n+i))) * 0.01
				total[i] += float64(delta[i])
			}
			coords := c.coords(uint64(round+1), "w", n)
			payload := make([]byte, wordCount(coords, n)*c.width())
			c.encodeVar(payload, delta, residual, next, coords)
			residual, next = next, residual
			for w := 0; w < wordCount(coords, n); w++ {
				i := w
				if coords != nil {
					i = coords[w]
				}
				delivered[i] += c.decodeSum(payload, w)
			}
		}
		for i := 0; i < n; i++ {
			got := delivered[i] + float64(residual[i])
			if math.Abs(got-total[i]) > 1e-6 {
				t.Fatalf("%v: coordinate %d delivered+residual %v, raw total %v", c, i, got, total[i])
			}
		}
	}
}

func TestInt8Clipping(t *testing.T) {
	c := ringCodec{dist.Int8Compression()}
	delta := []float32{10, -10, 0}
	payload, res := make([]byte, 3*c.width()), make([]float32, 3)
	c.encodeVar(payload, delta, make([]float32, 3), res, nil)
	if q0, q1 := int16(wordAt(payload, 2, 0)), int16(wordAt(payload, 2, 1)); q0 != 127 || q1 != -127 {
		t.Fatalf("out-of-clip values quantized to %d and %d, want ±127", q0, q1)
	}
	// The clipped-away mass must land in the residual.
	if math.Abs(float64(res[0])-(10-DefaultClip)) > 1e-6 {
		t.Fatalf("clipped residual %v, want %v", res[0], 10-DefaultClip)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	for _, c := range []ringCodec{{dist.NoCompression()}, {dist.Int8Compression()}, {dist.TopKCompression(0.5)}} {
		neg := int64(-42)
		words := []uint64{0, 1, ^uint64(0), uint64(neg), 0x1234}
		blob := testBlob(c, words)
		back, err := c.parseUpdate(blob, len(words))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for i := range words {
			if wordAt(back, c.width(), i) != ringFor(c.width(), words[i]) {
				t.Fatalf("%v: word %d round-tripped to %#x from %#x", c, i, wordAt(back, c.width(), i), words[i])
			}
		}
		if !bytes.Equal(back, blob[updateHeader:]) {
			t.Fatalf("%v: parsed payload is not the blob's own bytes", c)
		}
	}
}

func TestParseUpdateRejectsMalformed(t *testing.T) {
	c := ringCodec{dist.NoCompression()}
	good := testBlob(c, []uint64{1, 2, 3})
	cases := []struct {
		name string
		blob []byte
		want int
	}{
		{"empty", nil, 3},
		{"short header", good[:4], 3},
		{"wrong kind", append([]byte{byte(dist.CompressInt8)}, good[1:]...), 3},
		{"wrong width", append([]byte{good[0], 2}, good[2:]...), 3},
		{"wrong count", good, 4},
		{"truncated body", good[:len(good)-3], 3},
		{"trailing bytes", append(append([]byte(nil), good...), 0xff), 3},
	}
	for _, tc := range cases {
		if _, err := c.parseUpdate(tc.blob, tc.want); err == nil {
			t.Errorf("%s: malformed blob accepted", tc.name)
		}
	}
}
