// Package models is the model zoo of the reproduction: trainable
// architectures for the MNIST/CIFAR workloads, and inference stand-ins
// matching the byte sizes and per-image FLOP counts of the pre-trained
// networks the paper benchmarks with (Densenet 42 MB, Inception-v3 91 MB,
// Inception-v4 163 MB).
package models

import (
	"fmt"

	"github.com/securetf/securetf/internal/tf"
)

// Handles bundles the standard node set of a classification model.
type Handles struct {
	Graph    *tf.Graph
	X        *tf.Node // input placeholder
	Y        *tf.Node // one-hot label placeholder
	Logits   *tf.Node
	Loss     *tf.Node // scalar mean cross-entropy
	Pred     *tf.Node // argmax class predictions (Int32)
	Accuracy *tf.Node // scalar mean accuracy
}

// classifierTail attaches loss/pred/accuracy to logits.
func classifierTail(g *tf.Graph, logits, y *tf.Node) (loss, pred, acc *tf.Node) {
	loss = g.ReduceMean(g.SoftmaxCrossEntropy(logits, y))
	pred = g.ArgMax(logits)
	acc = g.ReduceMean(g.Equal(pred, g.ArgMax(y)))
	return
}

// MNISTMLP builds a 784-128-10 multilayer perceptron.
func MNISTMLP(seed int64) Handles {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 28, 28, 1})
	y := g.Placeholder("y", tf.Float32, tf.Shape{-1, 10})
	flat := g.Flatten(x)
	w1 := g.Variable("w1", tf.GlorotUniform(tf.Shape{784, 128}, 784, 128, seed))
	b1 := g.Variable("b1", tf.NewTensor(tf.Float32, tf.Shape{128}))
	h := g.Relu(g.BiasAdd(g.MatMul(flat, w1), b1))
	w2 := g.Variable("w2", tf.GlorotUniform(tf.Shape{128, 10}, 128, 10, seed+1))
	b2 := g.Variable("b2", tf.NewTensor(tf.Float32, tf.Shape{10}))
	logits := g.BiasAdd(g.MatMul(h, w2), b2)
	loss, pred, acc := classifierTail(g, logits, y)
	return Handles{Graph: g, X: x, Y: y, Logits: logits, Loss: loss, Pred: pred, Accuracy: acc}
}

// MNISTCNN builds the small LeNet-style CNN used for the distributed
// training experiments (§5.4): two conv+pool stages and a dense head.
func MNISTCNN(seed int64) Handles {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 28, 28, 1})
	y := g.Placeholder("y", tf.Float32, tf.Shape{-1, 10})

	f1 := g.Variable("conv1/filter", tf.GlorotUniform(tf.Shape{5, 5, 1, 8}, 25, 200, seed))
	b1 := g.Variable("conv1/bias", tf.NewTensor(tf.Float32, tf.Shape{8}))
	c1 := g.Relu(g.BiasAdd(g.Conv2D(x, f1, 1, tf.PaddingSame), b1))
	p1 := g.MaxPool(c1, 2, 2) // 14x14x8

	f2 := g.Variable("conv2/filter", tf.GlorotUniform(tf.Shape{5, 5, 8, 16}, 200, 400, seed+1))
	b2 := g.Variable("conv2/bias", tf.NewTensor(tf.Float32, tf.Shape{16}))
	c2 := g.Relu(g.BiasAdd(g.Conv2D(p1, f2, 1, tf.PaddingSame), b2))
	p2 := g.MaxPool(c2, 2, 2) // 7x7x16

	flat := g.Flatten(p2) // 784
	w1 := g.Variable("fc1/w", tf.GlorotUniform(tf.Shape{784, 512}, 784, 512, seed+2))
	fb1 := g.Variable("fc1/b", tf.NewTensor(tf.Float32, tf.Shape{512}))
	h := g.Relu(g.BiasAdd(g.MatMul(flat, w1), fb1))
	w2 := g.Variable("fc2/w", tf.GlorotUniform(tf.Shape{512, 10}, 512, 10, seed+3))
	fb2 := g.Variable("fc2/b", tf.NewTensor(tf.Float32, tf.Shape{10}))
	logits := g.BiasAdd(g.MatMul(h, w2), fb2)

	loss, pred, acc := classifierTail(g, logits, y)
	return Handles{Graph: g, X: x, Y: y, Logits: logits, Loss: loss, Pred: pred, Accuracy: acc}
}

// CIFARCNN builds a compact CNN for the CIFAR-10 classification workload.
func CIFARCNN(seed int64) Handles {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 32, 32, 3})
	y := g.Placeholder("y", tf.Float32, tf.Shape{-1, 10})

	f1 := g.Variable("conv1/filter", tf.GlorotUniform(tf.Shape{3, 3, 3, 16}, 27, 144, seed))
	b1 := g.Variable("conv1/bias", tf.NewTensor(tf.Float32, tf.Shape{16}))
	c1 := g.Relu(g.BiasAdd(g.Conv2D(x, f1, 1, tf.PaddingSame), b1))
	p1 := g.MaxPool(c1, 2, 2) // 16x16x16

	f2 := g.Variable("conv2/filter", tf.GlorotUniform(tf.Shape{3, 3, 16, 32}, 144, 288, seed+1))
	b2 := g.Variable("conv2/bias", tf.NewTensor(tf.Float32, tf.Shape{32}))
	c2 := g.Relu(g.BiasAdd(g.Conv2D(p1, f2, 1, tf.PaddingSame), b2))
	p2 := g.MaxPool(c2, 2, 2) // 8x8x32

	flat := g.Flatten(p2) // 2048
	w1 := g.Variable("fc1/w", tf.GlorotUniform(tf.Shape{2048, 64}, 2048, 64, seed+2))
	fb1 := g.Variable("fc1/b", tf.NewTensor(tf.Float32, tf.Shape{64}))
	h := g.Relu(g.BiasAdd(g.MatMul(flat, w1), fb1))
	w2 := g.Variable("fc2/w", tf.GlorotUniform(tf.Shape{64, 10}, 64, 10, seed+3))
	fb2 := g.Variable("fc2/b", tf.NewTensor(tf.Float32, tf.Shape{10}))
	logits := g.BiasAdd(g.MatMul(h, w2), fb2)

	loss, pred, acc := classifierTail(g, logits, y)
	return Handles{Graph: g, X: x, Y: y, Logits: logits, Loss: loss, Pred: pred, Accuracy: acc}
}

// FreezeForInference freezes a trained session into an inference graph
// keeping only the logits path, and returns it with its input and logits
// nodes.
func FreezeForInference(h Handles, sess *tf.Session) (*tf.Graph, *tf.Node, *tf.Node, error) {
	frozen, err := tf.Freeze(sess, []*tf.Node{h.Logits})
	if err != nil {
		return nil, nil, nil, err
	}
	fx := frozen.Node(h.X.Name())
	fl := frozen.Node(h.Logits.Name())
	if fx == nil || fl == nil {
		return nil, nil, nil, fmt.Errorf("models: frozen graph lost node handles")
	}
	return frozen, fx, fl, nil
}
