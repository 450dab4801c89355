package tf

import (
	"math"
	"testing"
)

// The session's memory plan (freeList) can fail in three ways, and each
// test here fails on a naive pool: a kernel that accumulates is handed a
// buffer that was not cleared (stale zero), a buffer that left with a
// result is handed out again (escaped storage), and a large Run's
// buffers outlive it (retention).

// bitEqual reports whether two tensors agree in dtype, shape and every
// bit of every element.
func bitEqual(a, b *Tensor) bool {
	if a.dtype != b.dtype || !a.shape.Equal(b.shape) || len(a.f32) != len(b.f32) || len(a.i32) != len(b.i32) {
		return false
	}
	for i := range a.f32 {
		if math.Float32bits(a.f32[i]) != math.Float32bits(b.f32[i]) {
			return false
		}
	}
	for i := range a.i32 {
		if a.i32[i] != b.i32[i] {
			return false
		}
	}
	return true
}

// otherFeeds returns feeds of the same placeholders, dtypes and shapes
// with different contents for each k > 0, and feeds itself for k = 0.
func otherFeeds(feeds Feeds, k int) Feeds {
	if k == 0 {
		return feeds
	}
	out := make(Feeds, len(feeds))
	for node, t := range feeds {
		if t.dtype == Int32 {
			c := t.Clone()
			for i := range c.i32 {
				c.i32[i] = t.i32[(i+k)%len(t.i32)]
			}
			out[node] = c
			continue
		}
		out[node] = RandNormal(t.shape, 1, int64(1000*k+len(out)))
	}
	return out
}

// freshLike returns a new session over s's graph holding s's current
// variable values, optimizer state excluded.
func freshLike(t *testing.T, s *Session) *Session {
	t.Helper()
	fresh := NewSession(s.graph)
	for name, v := range s.vars {
		if err := fresh.SetVariable(name, v); err != nil {
			t.Fatal(err)
		}
	}
	return fresh
}

// dirty makes every buffer the next Run draws a used one, the worst a
// real run of Runs can do. What the session holds is what the last Run
// left in it; this adds a twin of each of those buffers and one of the
// size of each result the last Run gave away, so that the draw which
// came last, or came up fresh because its buffer had left with the
// caller, finds a used buffer too — and fills the lot with NaN (-1 for
// the integers), which a kernel that overwrites its output covers and a
// sum into it does not.
func dirty(s *Session, results []*Tensor) {
	for _, b := range s.f32.free {
		s.f32.free = append(s.f32.free, make([]float32, len(b)))
	}
	for _, b := range s.i32.free {
		s.i32.free = append(s.i32.free, make([]int32, len(b)))
	}
	for _, r := range results {
		if len(r.f32) > 0 {
			s.f32.free = append(s.f32.free, make([]float32, len(r.f32)))
		}
		if len(r.i32) > 0 {
			s.i32.free = append(s.i32.free, make([]int32, len(r.i32)))
		}
	}
	for _, b := range s.f32.free {
		for i := range b {
			b[i] = float32(math.NaN())
		}
	}
	for _, b := range s.i32.free {
		for i := range b {
			b[i] = -1
		}
	}
}

// checkWarmRuns runs fetches three times on one session, with different
// feeds each time, and demands of every run the bits a session that has
// never run anything computes from the same feeds: the second and third
// runs compute into used buffers (see dirty), so a kernel that sums into
// a buffer nobody cleared, or leaves part of one unwritten, shows here.
// run1 and checkGradients call it, which puts every graph the kernel and
// gradient tests build through it.
func checkWarmRuns(t *testing.T, s *Session, feeds Feeds, fetches []*Node) {
	t.Helper()
	warm := freshLike(t, s)
	defer warm.Close()
	for k := 0; k < 3; k++ {
		f := otherFeeds(feeds, k)
		got, err := warm.Run(f, fetches)
		if err != nil {
			t.Fatalf("warm run %d: %v", k, err)
		}
		dirty(warm, got)
		fresh := freshLike(t, s)
		want, err := fresh.Run(f, fetches)
		fresh.Close()
		if err != nil {
			t.Fatalf("fresh run %d: %v", k, err)
		}
		for i := range want {
			if !bitEqual(got[i], want[i]) {
				t.Errorf("run %d on a warm session: %q differs from a fresh session's", k, fetches[i].name)
			}
		}
	}
}

// TestWarmRunsEqual is checkWarmRuns for Equal, which writes only the
// ones of its output and which no other test feeds anything but
// constants.
func TestWarmRunsEqual(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 4})
	w := g.Variable("w", RandNormal(Shape{4, 5}, 0.5, 1))
	b := g.Variable("b", RandNormal(Shape{5}, 0.5, 2))
	logits := g.BiasAdd(g.MatMul(x, w), b)
	labels := g.Placeholder("y", Float32, Shape{-1, 5})
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, labels))
	hit := g.Equal(g.ArgMax(logits), g.ArgMax(labels))
	_, grads, err := GradientNodes(g, loss)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(g)
	defer s.Close()
	feeds := Feeds{x: RandNormal(Shape{3, 4}, 1, 3), labels: RandNormal(Shape{3, 5}, 1, 4)}
	checkWarmRuns(t, s, feeds, append([]*Node{loss, hit}, grads...))
}

// TestWarmRunsTraining is checkWarmRuns for what the inference-mode
// helpers cannot reach: Dropout's mask and output, written only where a
// unit is kept, and DropoutGrad through them. The fresh session is
// brought to the warm one's place in the dropout stream first.
func TestWarmRunsTraining(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 16})
	w := g.Variable("w", RandNormal(Shape{16, 8}, 0.5, 60))
	dropped := g.Dropout(g.Relu(g.MatMul(x, w)), 0.5)
	labels := g.Placeholder("y", Float32, Shape{-1, 8})
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(dropped, labels))
	_, grads, err := GradientNodes(g, loss)
	if err != nil {
		t.Fatal(err)
	}
	fetches := append([]*Node{loss, dropped}, grads...)
	const batch, units = 6, 6 * 8

	warm := NewSession(g, WithSeed(7))
	defer warm.Close()
	feeds := Feeds{x: RandNormal(Shape{batch, 16}, 1, 61), labels: RandNormal(Shape{batch, 8}, 1, 62)}
	for k := 0; k < 3; k++ {
		f := otherFeeds(feeds, k)
		got, err := warm.Run(f, fetches, Training())
		if err != nil {
			t.Fatal(err)
		}
		dirty(warm, got)
		fresh := NewSession(g, WithSeed(7))
		for i := 0; i < k*units; i++ {
			fresh.rng.Float64()
		}
		want, err := fresh.Run(f, fetches, Training())
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bitEqual(got[i], want[i]) {
				t.Errorf("training run %d on a warm session: %q differs from a fresh session's", k, fetches[i].name)
			}
		}
	}
}

// TestResultsSurviveTheNextRun: what Run N returned is bit-unchanged
// after Run N+1 and a SetVariable, whatever it shares storage with — a
// Reshape view of an intermediate that was not itself fetched, the
// output gradient DropoutGrad hands through at inference, a variable,
// an optimizer apply's output.
func TestResultsSurviveTheNextRun(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 6})
	w := g.Variable("w", RandNormal(Shape{6, 4}, 0.5, 1))
	h := g.Relu(g.MatMul(x, w))
	view := g.Reshape(h, Shape{-1, 2})
	labels := g.Placeholder("y", Float32, Shape{-1, 4})
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(g.Dropout(h, 0.5), labels))
	train, err := Minimize(g, SGD{LR: 0.1}, loss)
	if err != nil {
		t.Fatal(err)
	}
	var passThrough, apply *Node
	for _, n := range g.nodes {
		switch n.op {
		case OpDropoutGrad:
			passThrough = n
		case OpApplySGD:
			apply = n
		}
	}
	if passThrough == nil || apply == nil {
		t.Fatal("graph has no DropoutGrad or no apply node")
	}
	fetches := []*Node{view, passThrough, w, apply, loss, g.ArgMax(h)}

	s := NewSession(g)
	defer s.Close()
	feeds := Feeds{x: RandNormal(Shape{5, 6}, 1, 2), labels: OneHot([]int{0, 1, 2, 3, 0}, 4)}
	first, err := s.Run(feeds, fetches)
	if err != nil {
		t.Fatal(err)
	}
	if s.isVariable(first[2]) || s.isVariable(first[3]) {
		t.Fatal("a fetched variable is the session's own storage")
	}
	kept := make([]*Tensor, len(first))
	for i, r := range first {
		kept[i] = r.Clone()
	}
	for k := 1; k <= 2; k++ {
		if _, err := s.Run(otherFeeds(feeds, k), append(fetches, train)); err != nil {
			t.Fatal(err)
		}
		if err := s.SetVariable("w", RandNormal(Shape{6, 4}, 0.5, int64(10+k))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range first {
		if !bitEqual(first[i], kept[i]) {
			t.Errorf("result %q of the first Run changed under the next ones", fetches[i].name)
		}
	}
}

// held is the number of elements the session keeps for its next Run.
func held(s *Session) (n int) {
	for _, b := range s.f32.free {
		n += len(b)
	}
	for _, b := range s.i32.free {
		n += len(b)
	}
	return n
}

// TestRetentionIsTheLastRun: after a batch-1000 Run and then a batch-50
// Run the session holds what a session that only ever ran batch 50
// holds, no batch-1000 buffer among it, and Close empties the list.
func TestRetentionIsTheLastRun(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 8, 8, 1})
	f := g.Variable("filter", RandNormal(Shape{3, 3, 1, 2}, 0.5, 30))
	pooled := g.MaxPool(g.Relu(g.Conv2D(x, f, 1, PaddingSame)), 2, 2)
	w := g.Variable("w", RandNormal(Shape{32, 2}, 0.3, 32))
	logits := g.MatMul(g.Flatten(pooled), w)
	labels := g.Placeholder("y", Float32, Shape{-1, 2})
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, labels))
	_, grads, err := GradientNodes(g, loss)
	if err != nil {
		t.Fatal(err)
	}
	fetches := append([]*Node{loss, g.ArgMax(logits)}, grads...)
	run := func(s *Session, batch int) {
		t.Helper()
		feeds := Feeds{x: RandNormal(Shape{batch, 8, 8, 1}, 1, 33), labels: RandNormal(Shape{batch, 2}, 1, 34)}
		if _, err := s.Run(feeds, fetches); err != nil {
			t.Fatal(err)
		}
	}

	small := NewSession(g)
	defer small.Close()
	run(small, 50)
	want := held(small)

	s := NewSession(g)
	run(s, 1000)
	if big := held(s); big < 10*want {
		t.Fatalf("a batch-1000 Run left %d elements behind against batch-50's %d: the test's premise is gone", big, want)
	}
	run(s, 50)
	if got := held(s); got != want {
		t.Fatalf("after batch 1000 then batch 50 the session holds %d elements, a batch-50 session %d", got, want)
	}
	for _, b := range s.f32.free {
		// Batch 50's largest buffer is the convolution's 50·8·8·2.
		if len(b) > 50*8*8*2 {
			t.Fatalf("a buffer of %d elements outlived the batch-1000 Run", len(b))
		}
	}
	if len(s.f32.drawn)+len(s.i32.drawn) != 0 {
		t.Fatal("a finished Run still counts buffers as drawn")
	}
	s.Close()
	if held(s) != 0 || s.f32.free != nil || s.i32.free != nil {
		t.Fatal("Close left buffers on the free list")
	}
}

// TestSetVariableRejectsMismatch: a value of another dtype or shape is
// refused and the variable keeps its own: an Int32 tensor in a Float32
// variable's place has no floats, and the next Run's matmul panics on
// it.
func TestSetVariableRejectsMismatch(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 2})
	w := g.Variable("w", Fill(Shape{2, 2}, 3))
	y := g.MatMul(x, w)
	s := NewSession(g)
	defer s.Close()
	ints, err := FromInts(Shape{2, 2}, []int32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		value *Tensor
		ok    bool
	}{
		{"same dtype and shape", Fill(Shape{2, 2}, 5), true},
		{"int32 of the same shape", ints, false},
		{"another shape", Fill(Shape{4}, 1), false},
		{"another rank", Fill(Shape{2, 2, 1}, 1), false},
	} {
		err := s.SetVariable("w", c.value)
		if (err == nil) != c.ok {
			t.Errorf("%s: SetVariable error = %v", c.name, err)
		}
		got, err := s.Variable("w")
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(got, Fill(Shape{2, 2}, 5)) {
			t.Errorf("%s: variable is %v afterwards", c.name, got.Floats())
		}
		if _, err := s.Run(Feeds{x: Fill(Shape{1, 2}, 1)}, []*Node{y}); err != nil {
			t.Errorf("%s: Run afterwards: %v", c.name, err)
		}
	}
}

// TestArenaTakesBackOnlyWhatItDrew: a buffer handed back is drawn again
// within the run and kept past its end, cleared when asked; what the
// arena did not draw (a caller's tensor, a buffer handed back twice) it
// never hands out; and a run that does not draw a buffer drops it.
func TestArenaTakesBackOnlyWhatItDrew(t *testing.T) {
	var a Arena
	var x, y, z Tensor
	caller := Fill(Shape{2, 2}, 7)
	a.Draw(&x, Float32, Shape{2, 2}, false)
	x.f32[0] = 1
	a.Return(&x)
	a.Return(&x)
	a.Return(caller)
	a.Draw(&y, Float32, Shape{4}, true)
	a.Draw(&z, Float32, Shape{1, 4}, false)
	switch {
	case !sameArray(y.f32, x.f32) || y.f32[0] != 0:
		t.Fatal("a buffer handed back was not drawn again, cleared")
	case sameArray(z.f32, x.f32) || sameArray(z.f32, caller.f32):
		t.Fatal("one buffer was drawn twice, or a caller's was drawn")
	case !y.shape.Equal(Shape{4}) || !z.shape.Equal(Shape{1, 4}):
		t.Fatalf("drawn shapes %v and %v", y.shape, z.shape)
	}
	a.Return(&y)
	a.Recycle()
	if len(a.f32.free) != 2 {
		t.Fatalf("the run's end kept %d buffers, want both it drew", len(a.f32.free))
	}
	a.Draw(&x, Int32, Shape{3}, false)
	a.Recycle()
	if len(a.f32.free) != 0 || len(a.i32.free) != 1 {
		t.Fatalf("a run that drew only an int32 buffer kept %d float32 and %d int32", len(a.f32.free), len(a.i32.free))
	}
}
