package dist

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/tf"
)

// TestCompressionNormalizeAndValidate pins the policy plumbing: only
// top-k carries a fraction, invalid fractions and kinds are rejected,
// and the wire round trip is exact.
func TestCompressionNormalizeAndValidate(t *testing.T) {
	if got, err := (Compression{Kind: CompressInt8, Fraction: 0.5}).Canonical(); err != nil || got != Int8Compression() {
		t.Fatalf("canonical int8 kept a fraction: %+v (err %v)", got, err)
	}
	if err := TopKCompression(0).validate(); err == nil {
		t.Fatal("top-k fraction 0 accepted")
	}
	if err := TopKCompression(1.5).validate(); err == nil {
		t.Fatal("top-k fraction 1.5 accepted")
	}
	if err := (Compression{Kind: 99}).validate(); err == nil {
		t.Fatal("unknown codec kind accepted")
	}
	for _, c := range []Compression{NoCompression(), Int8Compression(), TopKCompression(0.05)} {
		kind, frac := c.Wire()
		if got := CompressionFromWire(kind, frac); got != c {
			t.Fatalf("wire round trip changed %v into %v", c, got)
		}
	}
}

// TestInt8RoundTripWithinTolerance is the quantizer property test: every
// decoded element is within half a quantization bucket of the input, and
// the blob is ~4× smaller than the raw float32 frame.
func TestInt8RoundTripWithinTolerance(t *testing.T) {
	g := tf.RandNormal(tf.Shape{16, 33}, 1.5, 42)
	blob, res, err := Int8Compression().compress(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompressGrad(blob, g.Shape())
	if err != nil {
		t.Fatal(err)
	}
	var maxAbs float64
	for _, v := range g.Floats() {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	tol := maxAbs/127/2 + 1e-7
	src, out := g.Floats(), dec.Floats()
	for i := range src {
		if diff := math.Abs(float64(src[i] - out[i])); diff > tol {
			t.Fatalf("element %d: %v decoded as %v (diff %v > tol %v)", i, src[i], out[i], diff, tol)
		}
		if want := src[i] - out[i]; math.Abs(float64(res[i]-want)) > 1e-7 {
			t.Fatalf("element %d: residual %v, want the rounding error %v", i, res[i], want)
		}
	}
	if raw := int(g.Bytes()); len(blob)*3 >= raw {
		t.Fatalf("int8 blob of %d bytes is not ≥3× smaller than the %d-byte raw frame", len(blob), raw)
	}
}

// TestTopKRoundTrip checks the sparsifier: exactly k entries survive,
// each bit-exact, the dropped mass lands in the residual, and the blob
// shrinks with f.
func TestTopKRoundTrip(t *testing.T) {
	g := tf.RandNormal(tf.Shape{40, 25}, 1, 7)
	const f = 0.05
	blob, res, err := TopKCompression(f).compress(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompressGrad(blob, g.Shape())
	if err != nil {
		t.Fatal(err)
	}
	src, out := g.Floats(), dec.Floats()
	k := int(math.Round(f * float64(len(src))))
	kept := 0
	for i := range src {
		switch {
		case out[i] != 0:
			kept++
			if out[i] != src[i] {
				t.Fatalf("kept element %d changed: %v vs %v", i, out[i], src[i])
			}
			if res[i] != 0 {
				t.Fatalf("kept element %d left residual %v", i, res[i])
			}
		default:
			if res[i] != src[i] {
				t.Fatalf("dropped element %d: residual %v, want the full value %v", i, res[i], src[i])
			}
		}
	}
	if kept != k {
		t.Fatalf("decoded %d non-zero entries, want k=%d", kept, k)
	}
	if raw := int(g.Bytes()); len(blob)*8 >= raw {
		t.Fatalf("top-k blob of %d bytes is not ≥8× smaller than the %d-byte raw frame at f=%g", len(blob), raw, f)
	}
	// Every kept entry must dominate every dropped one in magnitude.
	var minKept, maxDropped float64 = math.Inf(1), 0
	for i := range src {
		a := math.Abs(float64(src[i]))
		if out[i] != 0 && a < minKept {
			minKept = a
		}
		if out[i] == 0 && a > maxDropped {
			maxDropped = a
		}
	}
	if minKept < maxDropped {
		t.Fatalf("kept magnitude %v below dropped magnitude %v — not a top-k selection", minKept, maxDropped)
	}
}

// TestSelectTopKMatchesFullSort pins the quickselect against the
// reference full sort under the same total order, across sizes, k
// values and heavy magnitude ties (where the index tie-break decides).
func TestSelectTopKMatchesFullSort(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []float32
		k    int
	}{
		{"random", tf.RandNormal(tf.Shape{257}, 1, 11).Floats(), 13},
		{"k=1", tf.RandNormal(tf.Shape{64}, 1, 12).Floats(), 1},
		{"k=n", tf.RandNormal(tf.Shape{17}, 1, 13).Floats(), 17},
		{"all tied", tf.Fill(tf.Shape{30}, 2.5).Floats(), 7},
		{"signs tied", []float32{-1, 1, -1, 1, -1, 1, 0.5}, 3},
	} {
		ref := make([]int, len(tc.vals))
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool { return gradBefore(tc.vals, ref[a], ref[b]) })
		want := append([]int(nil), ref[:tc.k]...)
		sort.Ints(want)

		order := make([]int, len(tc.vals))
		for i := range order {
			order[i] = i
		}
		selectTopK(order, tc.vals, tc.k)
		got := append([]int(nil), order[:tc.k]...)
		sort.Ints(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: selectTopK kept %v, full sort keeps %v", tc.name, got, want)
			}
		}
	}
}

// TestErrorFeedbackConservation is the residual carry-over property:
// over a sequence of steps, the sum of everything the codec delivered
// plus the final residual equals the sum of the raw gradients — no
// gradient mass is created or destroyed, only delayed.
func TestErrorFeedbackConservation(t *testing.T) {
	for _, c := range []Compression{Int8Compression(), TopKCompression(0.1)} {
		const steps = 12
		shape := tf.Shape{9, 11}
		elems := shape[0] * shape[1]
		residual := make([]float32, elems)
		sumRaw := make([]float64, elems)
		sumSent := make([]float64, elems)
		for step := 0; step < steps; step++ {
			g := tf.RandNormal(shape, 0.8, int64(1000+step))
			for i, v := range g.Floats() {
				sumRaw[i] += float64(v)
			}
			blob, newRes, err := c.compress(g, residual)
			if err != nil {
				t.Fatalf("%v step %d: %v", c, step, err)
			}
			dec, err := decompressGrad(blob, shape)
			if err != nil {
				t.Fatalf("%v step %d: %v", c, step, err)
			}
			for i, v := range dec.Floats() {
				sumSent[i] += float64(v)
			}
			copy(residual, newRes)
		}
		for i := range sumRaw {
			if diff := math.Abs(sumRaw[i] - (sumSent[i] + float64(residual[i]))); diff > 1e-4 {
				t.Fatalf("%v element %d: raw sum %v, delivered %v + residual %v (diff %v)",
					c, i, sumRaw[i], sumSent[i], residual[i], diff)
			}
		}
	}
}

// TestDecompressRejectsCorruptBlobs spot-checks the decoder guards the
// fuzz target exercises continuously.
func TestDecompressRejectsCorruptBlobs(t *testing.T) {
	g := tf.Fill(tf.Shape{4, 3}, 0.5)
	blob, _, err := Int8Compression().compress(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() ([]byte, tf.Shape){
		"truncated":      func() ([]byte, tf.Shape) { return blob[:len(blob)/2], g.Shape() },
		"wrong shape":    func() ([]byte, tf.Shape) { return blob, tf.Shape{3, 4} },
		"wrong rank":     func() ([]byte, tf.Shape) { return blob, tf.Shape{12} },
		"unknown kind":   func() ([]byte, tf.Shape) { b := append([]byte(nil), blob...); b[0] = 77; return b, g.Shape() },
		"empty":          func() ([]byte, tf.Shape) { return nil, g.Shape() },
		"trailing bytes": func() ([]byte, tf.Shape) { return append(append([]byte(nil), blob...), 1, 2, 3), g.Shape() },
	}
	for name, mk := range cases {
		b, shape := mk()
		if _, err := decompressGrad(b, shape); err == nil {
			t.Errorf("%s blob accepted", name)
		}
	}
	// Top-k index guards: out-of-range and out-of-order indices.
	tk, _, err := TopKCompression(0.5).compress(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), tk...)
	// First index lives right after kind(1)+dims(1)+2 dims(8)+k(4).
	bad[14] = 0xff
	if _, err := decompressGrad(bad, g.Shape()); err == nil {
		t.Error("top-k blob with an out-of-range index accepted")
	}
}

// compressedCluster stands up a 1-shard, `workers`-round-size cluster
// running codec c, returning the PS and a connected worker.
func compressedCluster(t *testing.T, workers int, c Compression) (*ParameterServer, *Worker) {
	t.Helper()
	ps, addr, _ := newTestPS(t, workers, func(cfg *PSConfig) { cfg.Compression = c })
	w, err := newCompressedWorkerErr(0, addr, c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return ps, w
}

// newCompressedWorkerErr builds the standard test worker with an
// explicit codec expectation, surfacing the construction error.
func newCompressedWorkerErr(id int, addr string, c Compression) (*Worker, error) {
	xs, ys := tinyShard(30, int64(100+id))
	return NewWorker(WorkerConfig{
		ID:          id,
		Addrs:       []string{addr},
		Model:       tinyModel(7),
		XS:          xs,
		YS:          ys,
		BatchSize:   10,
		Compression: c,
	})
}

// TestCodecMismatchFailsFast checks the handshake: a worker whose codec
// differs from the shard's — raw against compressed, compressed against
// raw, or the wrong top-k fraction — fails at construction.
func TestCodecMismatchFailsFast(t *testing.T) {
	_, addr, _ := newTestPS(t, 1, func(cfg *PSConfig) { cfg.Compression = TopKCompression(0.05) })
	for _, tc := range []struct {
		name  string
		codec Compression
	}{
		{"raw worker against compressed shard", NoCompression()},
		{"wrong codec kind", Int8Compression()},
		{"wrong top-k fraction", TopKCompression(0.1)},
	} {
		if w, err := newCompressedWorkerErr(0, addr, tc.codec); err == nil {
			w.Close()
			t.Errorf("%s: worker construction succeeded", tc.name)
		} else if !strings.Contains(err.Error(), "mixed-codec") {
			t.Errorf("%s: error does not name the codec mismatch: %v", tc.name, err)
		}
	}
	if w, err := newCompressedWorkerErr(0, addr, TopKCompression(0.05)); err != nil {
		t.Fatalf("matching codec rejected: %v", err)
	} else {
		w.Close()
	}
}

// TestCompressedPushFramingEnforced checks the server-side guard behind
// the handshake: a raw-tensor push hand-delivered to a compressed shard
// (bypassing NewWorker's negotiation) is rejected explicitly.
func TestCompressedPushFramingEnforced(t *testing.T) {
	ps, _ := compressedCluster(t, 1, Int8Compression())
	raw := &message{Kind: msgPush, Worker: 9, Vars: map[string]*tf.Tensor{"w": tf.Fill(tf.Shape{4, 3}, 1)}}
	if err := ps.push(raw, nil); err == nil || !strings.Contains(err.Error(), "raw gradients") {
		t.Fatalf("raw push to a compressed shard: err = %v, want a framing rejection", err)
	}
	// And the inverse: a compressed push to an uncompressed shard.
	ps2, _, _ := newTestPS(t, 1, nil)
	g := tf.Fill(tf.Shape{4, 3}, 1)
	blob, _, err := Int8Compression().compress(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := &message{Kind: msgPush, Worker: 9, Grads: map[string][]byte{"w": blob}}
	if err := ps2.push(enc, nil); err == nil || !strings.Contains(err.Error(), "compressed gradients") {
		t.Fatalf("compressed push to an uncompressed shard: err = %v, want a framing rejection", err)
	}
}

// TestCompressedTrainingLearns runs full training loops under both lossy
// codecs: the loss must decrease, the wire bytes must shrink versus the
// raw run, and the worker must be carrying a live residual.
func TestCompressedTrainingLearns(t *testing.T) {
	const steps = 30
	rawBytes := func() int64 {
		_, addr, _ := newTestPS(t, 1, nil)
		w, err := newCompressedWorkerErr(0, addr, NoCompression())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.RunSteps(steps); err != nil {
			t.Fatal(err)
		}
		return w.PushBytes()[0]
	}()
	// The tiny 15-element test model is dominated by fixed frame
	// headers, so the ratios here are far below the ≥3×/≥6× a real model
	// reaches (BenchmarkDistCompress pins those at MNIST-CNN scale);
	// what matters is that the compressed frames are strictly smaller.
	for _, tc := range []struct {
		codec        Compression
		minReduction float64
	}{
		{Int8Compression(), 1.3},
		{TopKCompression(0.05), 1.5},
	} {
		_, w := compressedCluster(t, 1, tc.codec)
		if err := w.Step(); err != nil {
			t.Fatalf("%v: %v", tc.codec, err)
		}
		first := w.LastLoss
		if err := w.RunSteps(steps - 1); err != nil {
			t.Fatalf("%v: %v", tc.codec, err)
		}
		if w.LastLoss >= first {
			t.Fatalf("%v: loss did not decrease: first %v, last %v", tc.codec, first, w.LastLoss)
		}
		var residual float64
		for _, res := range w.residuals {
			for _, v := range res {
				residual += math.Abs(float64(v))
			}
		}
		if residual == 0 {
			t.Fatalf("%v: no error-feedback residual accumulated over %d lossy steps", tc.codec, steps)
		}
		got := w.PushBytes()[0]
		if reduction := float64(rawBytes) / float64(got); reduction < tc.minReduction {
			t.Fatalf("%v: push bytes %d vs raw %d — reduction %.2fx below %gx",
				tc.codec, got, rawBytes, reduction, tc.minReduction)
		}
	}
}

// TestNoCompressionBitForBit pins the backstop: the zero-value codec and
// an explicit NoCompression() produce identical loss trajectories and
// identical push frame bytes — the raw path is untouched.
func TestNoCompressionBitForBit(t *testing.T) {
	run := func(c Compression) ([]float64, int64) {
		_, addr, _ := newTestPS(t, 1, func(cfg *PSConfig) { cfg.Compression = c })
		w, err := newCompressedWorkerErr(0, addr, c)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var losses []float64
		for i := 0; i < 5; i++ {
			if err := w.Step(); err != nil {
				t.Fatal(err)
			}
			losses = append(losses, w.LastLoss)
		}
		return losses, w.PushBytes()[0]
	}
	zeroLoss, zeroBytes := run(Compression{})
	noneLoss, noneBytes := run(NoCompression())
	for i := range zeroLoss {
		if zeroLoss[i] != noneLoss[i] {
			t.Fatalf("step %d: zero-value codec loss %v differs from NoCompression %v", i, zeroLoss[i], noneLoss[i])
		}
	}
	if zeroBytes != noneBytes {
		t.Fatalf("push bytes differ: %d vs %d", zeroBytes, noneBytes)
	}
}

// TestCompressedTrainingCheckpointRoundTrip proves checkpoint state is
// independent of the worker-side error-feedback machinery: after a lossy
// compressed run, SaveCheckpoint/RestoreCheckpoint of the parameter
// server's variables round-trips bit-exact — the residuals live on the
// worker and never leak into the authoritative state.
func TestCompressedTrainingCheckpointRoundTrip(t *testing.T) {
	ps, w := compressedCluster(t, 1, TopKCompression(0.1))
	if err := w.RunSteps(8); err != nil {
		t.Fatal(err)
	}
	if len(w.residuals) == 0 {
		t.Fatal("compressed run left no residual state — the round trip would prove nothing")
	}
	vars := ps.Vars()
	m := tinyModel(7)
	sess := tf.NewSession(m.Graph, tf.WithSeed(1))
	defer sess.Close()
	for name, v := range vars {
		if err := sess.SetVariable(name, v); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := tf.SaveCheckpoint(sess)

	m2 := tinyModel(7)
	sess2 := tf.NewSession(m2.Graph, tf.WithSeed(1))
	defer sess2.Close()
	if err := tf.RestoreCheckpoint(sess2, ckpt); err != nil {
		t.Fatal(err)
	}
	for _, v := range m2.Graph.Variables() {
		got, err := sess2.Variable(v.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !tf.AllClose(got, vars[v.Name()], 0) {
			t.Fatalf("variable %q changed across the checkpoint round trip", v.Name())
		}
	}

	// The same state must also survive the dist shard-snapshot container
	// (STFD1) and reseed a fresh parameter server via Resume: the
	// resumed shard reports the snapshot's round count and bit-identical
	// variables, with the worker-side residuals still uninvolved.
	ck, err := DecodeCheckpoint(EncodeCheckpoint(ps.Checkpoint()))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Rounds != ps.Rounds() {
		t.Fatalf("snapshot records %d rounds, shard committed %d", ck.Rounds, ps.Rounds())
	}
	ps2, _, _ := newTestPS(t, 1, func(cfg *PSConfig) {
		cfg.Compression = TopKCompression(0.1)
		cfg.Resume = ck
	})
	if ps2.Rounds() != ps.Rounds() {
		t.Fatalf("resumed shard reports %d rounds, want %d", ps2.Rounds(), ps.Rounds())
	}
	for name, v := range vars {
		if !tf.AllClose(ps2.Vars()[name], v, 0) {
			t.Fatalf("variable %q changed across the shard snapshot resume", name)
		}
	}
}

// TestAsyncRetryBreakdownAccounting pins the Figure 8 bookkeeping fix:
// a staleness retry's re-pull and recompute must extend the Pull and
// Compute columns of LastBreakdown — not be lumped into Push — and the
// three columns must exactly tile the virtual time FinishStep consumed.
func TestAsyncRetryBreakdownAccounting(t *testing.T) {
	_, addr, _ := newTestPS(t, 2, func(cfg *PSConfig) { cfg.Consistency = Async(0) })
	w0, clock := newTestWorkerPolicy(t, 0, addr, Async(0))
	w1, _ := newTestWorkerPolicy(t, 1, addr, Async(0))

	if err := w0.BeginStep(); err != nil {
		t.Fatal(err)
	}
	pull0, comp0 := w0.LastBreakdown.Pull, w0.LastBreakdown.Compute
	// w1 overtakes: w0's staged push now lags by 1 > K=0 and must be
	// rejected, re-pulled, recomputed and re-pushed.
	if err := w1.Step(); err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	if err := w0.FinishStep(); err != nil {
		t.Fatal(err)
	}
	finish := clock.Now() - before
	if got := w0.StalenessRetries(); got != 1 {
		t.Fatalf("StalenessRetries() = %d, want exactly 1", got)
	}
	b := w0.LastBreakdown
	if b.Pull <= pull0 {
		t.Fatalf("retry re-pull not attributed to Pull: %v (was %v at BeginStep)", b.Pull, pull0)
	}
	if b.Compute <= comp0 {
		t.Fatalf("retry recompute not attributed to Compute: %v (was %v at BeginStep)", b.Compute, comp0)
	}
	if got := (b.Pull - pull0) + (b.Compute - comp0) + b.Push; got != finish {
		t.Fatalf("breakdown does not tile FinishStep: pullΔ %v + computeΔ %v + push %v = %v, FinishStep took %v",
			b.Pull-pull0, b.Compute-comp0, b.Push, got, finish)
	}
}

// FuzzGradCodec fuzzes the compressed-gradient blob decoder: arbitrary
// bytes must produce an error or a tensor of exactly the requested
// shape — never a panic or an allocation sized by attacker bytes. Valid
// blobs from both codecs seed the corpus.
func FuzzGradCodec(f *testing.F) {
	g := tf.RandNormal(tf.Shape{6, 5}, 1, 3)
	for _, c := range []Compression{Int8Compression(), TopKCompression(0.2)} {
		blob, _, err := c.compress(g, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)-1] ^= 0x40
		f.Add(flipped)
	}
	want := tf.Shape{6, 5}
	f.Fuzz(func(t *testing.T, blob []byte) {
		dec, err := decompressGrad(blob, want)
		if err != nil {
			return
		}
		if !dec.Shape().Equal(want) {
			t.Fatalf("decoded shape %v, want %v", dec.Shape(), want)
		}
		if got := len(dec.Floats()); got != 30 {
			t.Fatalf("decoded %d elements from a %d-byte blob, want 30", got, len(blob))
		}
	})
}
