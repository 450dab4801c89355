package federated

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/securetf/securetf/internal/tf/dist"
)

// mlpUpdate returns zeroed packed payloads shaped like one client's
// update of the MNIST MLP (b1, b2, w1, w2 in sorted manifest order:
// 101 770 coordinates).
func mlpUpdate(width int) [][]byte {
	var payloads [][]byte
	for _, coords := range []int{128, 10, 784 * 128, 128 * 10} {
		payloads = append(payloads, make([]byte, coords*width))
	}
	return payloads
}

func cohortOf(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// BenchmarkMaskUpload is the fed-round workload's inner loop in
// isolation: one client of a 64-member cohort blinding its MNIST-MLP
// update with 63 pair streams, the complete graph, and (the _d14 rows)
// with the 14 of its neighbours in fed-round's pairing graph. MB/s is
// key-stream throughput, so int8 and none and both graphs are
// comparable and AES-CTR alone (BenchmarkRing/KeyStreamOnly) is the
// ceiling; ns/op is what one upload's masking costs.
func BenchmarkMaskUpload(b *testing.B) {
	cohort := cohortOf(64)
	sparse := newPairingGraph(len(cohort), 1, maskDegree(len(cohort), 51)).neighbours(cohort, 17)
	for _, codec := range []ringCodec{{dist.Int8Compression()}, {dist.NoCompression()}} {
		for _, row := range []struct {
			suffix string
			peers  []uint32
		}{{"", slices.Delete(slices.Clone(cohort), 17, 18)}, {"_d14", sparse}} {
			b.Run(codec.String()+row.suffix, func(b *testing.B) {
				payloads := mlpUpdate(codec.width())
				b.SetBytes(int64(len(row.peers) * updateSize(payloads)))
				b.ReportAllocs()
				for b.Loop() {
					applyPairMasks(payloads, codec.width(), testSecret, 17, row.peers, 1)
				}
			})
		}
	}
}

// TestMaskUploadAllocation holds the allocator to what the packed data
// path promises: masking an upload materialises no vectors. All it
// allocates is each pair's key schedule (two HKDFs, an AES key
// expansion, a CTR stream: ≈3.3 KB a peer), so the bytes allocated do not
// depend on the size of the model at all, and a 64-member cohort costs
// about 0.2 MB — where 63 widened mask vectors and their byte buffers
// used to cost 64 MB.
func TestMaskUploadAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not what is measured under the race detector")
	}
	// The fan-out's partial sums are recycled with its fold state, which
	// a garbage collection does not drain; the collector is held off
	// anyway, so that what is counted is what masking allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perUpload := func(members, width int) float64 {
		payloads := mlpUpdate(width)
		cohort := cohortOf(members)
		mask := func() { applyPairMasks(payloads, width, testSecret, 3, cohort, 1) }
		mask() // the fan-out's partial sums are recycled: warm them
		// A fan-out that finds no recycled fold still makes fresh partial
		// sums, a whole model of ring words each, so one mask can cost
		// more than another but never less than masking allocates: take
		// the least of a few.
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mask()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return float64(least)
	}
	few, many, manyWide := perUpload(8, 2), perUpload(64, 2), perUpload(64, 8)
	wideRing := updateSize(mlpUpdate(8))
	t.Logf("bytes allocated per masked upload: %.0f with 7 peers, %.0f with 63, %.0f with 63 in the 64-bit ring (one such model: %d)",
		few, many, manyWide, wideRing)
	if perPeer := (many - few) / 56; perPeer > 4<<10 {
		t.Errorf("each extra peer costs %.0f allocated bytes: more than a key schedule", perPeer)
	}
	if diff := manyWide - many; diff > 16<<10 || diff < -16<<10 {
		t.Errorf("a model four times the ring bytes moved the allocation from %.0f to %.0f bytes: something model-sized is allocated",
			many, manyWide)
	}
	if manyWide >= float64(wideRing) {
		t.Errorf("masking against 63 peers allocates %.0f bytes, one model's ring bytes are %d", manyWide, wideRing)
	}
}
