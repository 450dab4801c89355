package federated

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/securetf/securetf/internal/federated/ring"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/tf/dist"
)

// ringCodec is a job's uplink quantizer: the dist.Compression policy
// the job was configured with, applied over integer rings so pairwise
// masks cancel bit-exactly in the coordinator's sum.
//
//   - dist.CompressNone uploads every coordinate as a 64-bit fixed-point
//     word.
//   - dist.CompressInt8 quantizes coordinates to signed 8-bit steps of
//     the public clip bound DefaultClip, uploaded as 16-bit ring words so
//     a quorum of sums cannot overflow.
//   - dist.CompressTopK uploads fixed-point words for only the round's
//     shared pseudo-random coordinate pattern (rand-k); the rest of the
//     delta accumulates in the client's error-feedback residual.
type ringCodec struct{ dist.Compression }

// Fixed-point scale for CompressNone and CompressTopK words: values are
// encoded as round(x * 2^fpShift) in two's complement. 32 fractional
// bits leave 31 integer bits — far beyond any model-delta magnitude —
// while keeping quantization error below 2^-32 per coordinate.
const fpShift = 32

const fpScale = float64(uint64(1) << fpShift)

// DefaultClip is the public int8 clip bound. It must be identical on
// every client and the coordinator (the quantization grid is part of
// the protocol), so it is a constant of the codec, not a data-dependent
// per-round statistic.
const DefaultClip = 0.25

// maxInt8Quorum bounds the accepted uploads per round under CompressInt8:
// each word is a signed 8-bit step in [-127, 127] carried in a 16-bit
// ring, and 258*127 = 32766 still fits int16, so a sum of up to 258
// updates cannot wrap.
const maxInt8Quorum = 258

// width is the ring word size in bytes: the int8 codec sums in a
// 16-bit ring, everything else in the full 64-bit ring.
func (c ringCodec) width() int {
	if c.Kind == dist.CompressInt8 {
		return 2
	}
	return 8
}

// coords returns the round's coordinate pattern for an n-element
// variable: nil for dense codecs (all coordinates), or the sorted
// rand-k subset derived from the round's pattern seed and the variable
// name. Every cohort member and the coordinator derive the identical
// pattern, which is what lets pairwise masks cancel per coordinate and
// keeps index bytes off the wire.
func (c ringCodec) coords(patternSeed uint64, name string, n int) []int {
	if c.Kind != dist.CompressTopK {
		return nil
	}
	k := int(math.Ceil(c.Fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], patternSeed)
	g := seccrypto.NewPRG(seccrypto.HKDF(seed[:], saltPattern, name))
	perm := g.Perm(n)
	coords := perm[:k]
	sort.Ints(coords)
	return coords
}

// wordCount is the number of ring words a variable of n elements
// occupies under the pattern (nil = dense).
func wordCount(coords []int, n int) int {
	if coords == nil {
		return n
	}
	return len(coords)
}

// updateHeader is the size of a masked-update blob's self-describing
// header: [kind u8][width u8][count u32 LE]. The payload that follows is
// count ring words, little-endian, at the codec's width — the packed
// form internal/federated/ring computes on, so an update is quantized,
// masked, sent, validated and accumulated without ever being unpacked.
const updateHeader = 6

// blobSize is the wire size of a variable's update of the given word
// count.
func (c ringCodec) blobSize(words int) int { return updateHeader + words*c.width() }

// encodeVar quantizes one variable's delta (plus carried residual) into
// the packed ring words of payload, at the given coordinates (nil =
// all), and writes the residual an accepted upload leaves behind into
// next. Unsent coordinates carry their whole effective value into next;
// sent coordinates carry only the quantization error. residual itself
// is not touched, so a refused upload loses nothing. next may alias
// delta, since each coordinate is read before it is written, but never
// residual. The int8 codec is dense and is ring.QuantizeInt8 at the
// step DefaultClip/127.
func (c ringCodec) encodeVar(payload []byte, delta, residual, next []float32, coords []int) {
	if c.Kind == dist.CompressInt8 {
		ring.QuantizeInt8(payload, delta, residual, next, DefaultClip/127)
		return
	}
	w := 0 // next ring word; under a pattern, coords[w] is its coordinate
	for i := range delta {
		v := float64(delta[i]) + float64(residual[i])
		if coords != nil && (w == len(coords) || coords[w] != i) {
			next[i] = float32(v)
			continue
		}
		q := math.Round(v * fpScale)
		binary.LittleEndian.PutUint64(payload[8*w:], uint64(int64(q)))
		next[i] = float32(v - float64(q/fpScale))
		w++
	}
}

// decodeSum converts ring word w of a packed sum back to a float
// contribution. The word is the ring sum of up to quorum individual
// words; for the fixed-point codecs sign extension of the 64-bit ring
// is exact, and for int8 the quorum bound guarantees the int16 never
// wrapped.
func (c ringCodec) decodeSum(sum []byte, w int) float64 {
	if c.Kind == dist.CompressInt8 {
		return float64(int16(binary.LittleEndian.Uint16(sum[2*w:]))) * DefaultClip / 127
	}
	return float64(int64(binary.LittleEndian.Uint64(sum[8*w:]))) / fpScale
}

// marshalUpdate writes the header of a self-describing update blob
// around the payload already encoded (and masked) in place behind it.
func (c ringCodec) marshalUpdate(blob []byte) {
	width := c.width()
	blob[0] = byte(c.Kind)
	blob[1] = byte(width)
	binary.LittleEndian.PutUint32(blob[2:], uint32((len(blob)-updateHeader)/width))
}

// parseUpdate validates a masked-update blob for one variable and
// returns its payload, aliasing blob. Every structural field is checked
// against what the coordinator already knows (codec, expected word
// count), so a malformed or adversarial blob produces an error — never
// a panic, and nothing is allocated at all.
func (c ringCodec) parseUpdate(blob []byte, wantWords int) ([]byte, error) {
	if len(blob) < updateHeader {
		return nil, fmt.Errorf("federated: update blob of %d bytes is shorter than its header", len(blob))
	}
	if dist.CompressionKind(blob[0]) != c.Kind {
		return nil, fmt.Errorf("federated: update codec kind %d, round runs %s", blob[0], c)
	}
	width := int(blob[1])
	if width != c.width() {
		return nil, fmt.Errorf("federated: update word width %d, codec %s uses %d", width, c, c.width())
	}
	count := int(binary.LittleEndian.Uint32(blob[2:]))
	if count != wantWords {
		return nil, fmt.Errorf("federated: update carries %d words, variable needs %d", count, wantWords)
	}
	if len(blob) != c.blobSize(count) {
		return nil, fmt.Errorf("federated: update blob is %d bytes, %d words of %d need %d",
			len(blob), count, width, c.blobSize(count))
	}
	return blob[updateHeader:], nil
}
