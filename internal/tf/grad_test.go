package tf

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates d(loss)/d(param[i]) by central differences,
// treating the parameter as a variable in the session.
func numericalGrad(t *testing.T, s *Session, feeds Feeds, loss *Node, varName string, idx int) float64 {
	t.Helper()
	const eps = 1e-3
	orig, err := s.Variable(varName)
	if err != nil {
		t.Fatal(err)
	}
	perturb := func(delta float32) float64 {
		mod := orig.Clone()
		mod.Floats()[idx] += delta
		if err := s.SetVariable(varName, mod); err != nil {
			t.Fatal(err)
		}
		out, err := s.Run(feeds, []*Node{loss})
		if err != nil {
			t.Fatal(err)
		}
		return float64(out[0].Floats()[0])
	}
	plus := perturb(eps)
	minus := perturb(-eps)
	if err := s.SetVariable(varName, orig); err != nil {
		t.Fatal(err)
	}
	return (plus - minus) / (2 * eps)
}

// checkGradients compares analytic gradients against numerical ones for a
// few sampled indices of every variable.
func checkGradients(t *testing.T, g *Graph, s *Session, feeds Feeds, loss *Node, tol float64) {
	t.Helper()
	vars := g.Variables()
	grads, err := Gradients(g, loss, vars)
	if err != nil {
		t.Fatal(err)
	}
	checkWarmRuns(t, s, feeds, append(grads, loss))
	rng := rand.New(rand.NewSource(99))
	for vi, v := range vars {
		if grads[vi] == nil {
			t.Fatalf("no gradient for %q", v.Name())
		}
		out, err := s.Run(feeds, []*Node{grads[vi]})
		if err != nil {
			t.Fatal(err)
		}
		analytic := out[0]
		n := analytic.NumElements()
		samples := 4
		if n < samples {
			samples = n
		}
		for k := 0; k < samples; k++ {
			idx := rng.Intn(n)
			numeric := numericalGrad(t, s, feeds, loss, v.Name(), idx)
			got := float64(analytic.Floats()[idx])
			if math.Abs(got-numeric) > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", v.Name(), idx, got, numeric)
			}
		}
	}
}

func TestGradientsDenseLayer(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{4, 3})
	w := g.Variable("w", RandNormal(Shape{3, 5}, 0.5, 1))
	b := g.Variable("b", RandNormal(Shape{5}, 0.5, 2))
	labels := g.Placeholder("y", Float32, Shape{4, 5})
	logits := g.BiasAdd(g.MatMul(x, w), b)
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, labels))

	s := NewSession(g)
	defer s.Close()
	feeds := Feeds{
		x:      RandNormal(Shape{4, 3}, 1, 3),
		labels: OneHot([]int{0, 1, 2, 3}, 5),
	}
	checkGradients(t, g, s, feeds, loss, 2e-2)
}

func TestGradientsReluChain(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{3, 4})
	w1 := g.Variable("w1", RandNormal(Shape{4, 6}, 0.5, 10))
	w2 := g.Variable("w2", RandNormal(Shape{6, 2}, 0.5, 11))
	labels := g.Placeholder("y", Float32, Shape{3, 2})
	h := g.Relu(g.MatMul(x, w1))
	logits := g.MatMul(h, w2)
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, labels))

	s := NewSession(g)
	defer s.Close()
	feeds := Feeds{
		x:      RandNormal(Shape{3, 4}, 1, 12),
		labels: OneHot([]int{0, 1, 0}, 2),
	}
	checkGradients(t, g, s, feeds, loss, 2e-2)
}

func TestGradientsSigmoidTanhSquare(t *testing.T) {
	g := NewGraph()
	w := g.Variable("w", RandNormal(Shape{6}, 0.7, 20))
	// loss = mean(square(tanh(sigmoid(w)))) — chained unary grads.
	loss := g.ReduceMean(g.Square(g.Tanh(g.Sigmoid(w))))
	s := NewSession(g)
	defer s.Close()
	checkGradients(t, g, s, nil, loss, 2e-2)
}

func TestGradientsExpLogSqrtDiv(t *testing.T) {
	g := NewGraph()
	w := g.Variable("w", Fill(Shape{4}, 2.5))
	two := g.Const("two", Scalar(2))
	// loss = mean( exp(w)/1e2 + log(w) + sqrt(w) + w/2 )
	e := g.Div(g.Exp(w), g.Const("hundred", Scalar(100)))
	expr := g.Add(g.Add(e, g.Log(w)), g.Add(g.Sqrt(w), g.Div(w, two)))
	loss := g.ReduceMean(expr)
	s := NewSession(g)
	defer s.Close()
	checkGradients(t, g, s, nil, loss, 2e-2)
}

func TestGradientsConvPoolNetwork(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{2, 8, 8, 1})
	f := g.Variable("filter", RandNormal(Shape{3, 3, 1, 2}, 0.5, 30))
	b := g.Variable("bias", RandNormal(Shape{2}, 0.1, 31))
	labels := g.Placeholder("y", Float32, Shape{2, 2})

	conv := g.Relu(g.BiasAdd(g.Conv2D(x, f, 1, PaddingSame), b))
	pooled := g.MaxPool(conv, 2, 2)
	flat := g.Flatten(pooled)
	w := g.Variable("w", RandNormal(Shape{32, 2}, 0.3, 32))
	logits := g.MatMul(flat, w)
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, labels))

	s := NewSession(g)
	defer s.Close()
	feeds := Feeds{
		x:      RandNormal(Shape{2, 8, 8, 1}, 1, 33),
		labels: OneHot([]int{0, 1}, 2),
	}
	checkGradients(t, g, s, feeds, loss, 5e-2)
}

func TestGradientsAvgPool(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{1, 4, 4, 1})
	f := g.Variable("f", RandNormal(Shape{2, 2, 1, 1}, 0.5, 40))
	conv := g.Conv2D(x, f, 1, PaddingValid)
	pooled := g.AvgPool(conv, 3, 1)
	loss := g.ReduceMean(g.Square(pooled))
	s := NewSession(g)
	defer s.Close()
	feeds := Feeds{x: RandNormal(Shape{1, 4, 4, 1}, 1, 41)}
	checkGradients(t, g, s, feeds, loss, 2e-2)
}

func TestGradientsReduceSumScalarBroadcast(t *testing.T) {
	g := NewGraph()
	w := g.Variable("w", RandNormal(Shape{5}, 1, 50))
	scale := g.Variable("scale", Scalar(3))
	loss := g.ReduceSum(g.Mul(w, scale)) // d/dscale = sum(w): scalar-broadcast grad path
	s := NewSession(g)
	defer s.Close()
	checkGradients(t, g, s, nil, loss, 2e-2)
}

func TestGradientsErrorsOnNonScalarLoss(t *testing.T) {
	g := NewGraph()
	w := g.Variable("w", Fill(Shape{3}, 1))
	if _, err := Gradients(g, w, []*Node{w}); err == nil {
		t.Fatal("non-scalar loss accepted")
	}
}

func TestGradientsNilForUnrelatedVariable(t *testing.T) {
	g := NewGraph()
	w := g.Variable("w", Fill(Shape{3}, 1))
	unrelated := g.Variable("unrelated", Fill(Shape{3}, 1))
	loss := g.ReduceMean(g.Square(w))
	grads, err := Gradients(g, loss, []*Node{w, unrelated})
	if err != nil {
		t.Fatal(err)
	}
	if grads[0] == nil {
		t.Fatal("missing gradient for dependent variable")
	}
	if grads[1] != nil {
		t.Fatal("gradient for unrelated variable should be nil")
	}
}

func TestGradientAccumulationFanOut(t *testing.T) {
	// w used twice: dw must accumulate both paths: d/dw (w*w + 3w) = 2w+3.
	g := NewGraph()
	w := g.Variable("w", Fill(Shape{1}, 4))
	three := g.Const("three", Scalar(3))
	loss := g.ReduceSum(g.Add(g.Mul(w, w), g.Mul(w, three)))
	grads, err := Gradients(g, loss, []*Node{w})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(g)
	defer s.Close()
	out, err := s.Run(nil, []*Node{grads[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Floats()[0]; math.Abs(float64(got)-11) > 1e-5 {
		t.Fatalf("dw = %v, want 2*4+3 = 11", got)
	}
}
