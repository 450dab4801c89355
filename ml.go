package securetf

import (
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/tf/kernels"
	"github.com/securetf/securetf/internal/tflite"
)

// Tensor is a dense typed multi-dimensional array.
type Tensor = tf.Tensor

// Shape is a tensor shape (row-major dimensions).
type Shape = tf.Shape

// Graph is a TensorFlow-style static dataflow graph. Graph.Variable
// keeps the initial tensor it is given rather than a copy, so pass a
// tensor nothing else writes to.
type Graph = tf.Graph

// Node is one operation instance in a Graph.
type Node = tf.Node

// DType identifies a tensor element type.
type DType = tf.DType

// Tensor element types.
const (
	Float32 = tf.Float32
	Int32   = tf.Int32
)

// NewGraph creates an empty dataflow graph. Combined with the exported
// FrozenModel fields this lets hand-built inference stages go through
// the same ConvertToLite path as trained models — see
// examples/document_digitization for fixed-weight graph steps built
// this way.
var NewGraph = tf.NewGraph

// Tensor constructors, re-exported from the engine.
var (
	// TensorFromFloats builds a Float32 tensor from a flat slice.
	TensorFromFloats = tf.FromFloats
	// TensorFromInts builds an Int32 tensor from a flat slice.
	TensorFromInts = tf.FromInts
	// OneHot encodes integer labels as a [len(labels), depth] one-hot
	// Float32 tensor.
	OneHot = tf.OneHot
	// RandNormal draws a deterministic pseudo-normal tensor.
	RandNormal = tf.RandNormal
	// Fill builds a tensor of one repeated value.
	Fill = tf.Fill
	// Scalar builds a zero-dimensional tensor.
	Scalar = tf.Scalar
	// EncodeTensor serializes a tensor to its wire format (parameter
	// exchange, checkpoints).
	EncodeTensor = tf.EncodeTensor
	// DecodeTensor parses a tensor from its wire format.
	DecodeTensor = tf.DecodeTensor
	// SliceRows returns rows [lo, hi) of a tensor's leading dimension
	// as a new tensor (minibatching helper).
	SliceRows = tf.SliceRows
)

// FilterClasses keeps the rows of a labelled dataset whose one-hot
// label is among the given classes — the non-IID sharding helper of the
// federated-learning use case, where each participant holds examples of
// only some classes. xs is [n, ...] and ys the matching [n, depth]
// one-hot labels.
func FilterClasses(xs, ys *Tensor, classes ...int) (*Tensor, *Tensor, error) {
	if len(classes) == 0 {
		return nil, nil, errors.New("securetf: FilterClasses needs at least one class")
	}
	xShape, yShape := xs.Shape(), ys.Shape()
	if len(xShape) == 0 || len(yShape) != 2 || xShape[0] != yShape[0] {
		return nil, nil, fmt.Errorf("securetf: FilterClasses on shapes %v and %v", xShape, yShape)
	}
	depth := yShape[1]
	keep := make(map[int]bool, len(classes))
	for _, cls := range classes {
		if cls < 0 || cls >= depth {
			return nil, nil, fmt.Errorf("securetf: class %d outside the %d-class label space", cls, depth)
		}
		keep[cls] = true
	}
	rowElems := 1
	for _, d := range xShape[1:] {
		rowElems *= d
	}
	var outX, outY []float32
	rows := 0
	for i := 0; i < yShape[0]; i++ {
		row := ys.Floats()[i*depth : (i+1)*depth]
		cls := 0
		for j, v := range row {
			if v > row[cls] {
				cls = j
			}
		}
		if !keep[cls] {
			continue
		}
		outX = append(outX, xs.Floats()[i*rowElems:(i+1)*rowElems]...)
		outY = append(outY, row...)
		rows++
	}
	if rows == 0 {
		return nil, nil, fmt.Errorf("securetf: no examples of classes %v in the dataset", classes)
	}
	fx, err := tf.FromFloats(append(Shape{rows}, xShape[1:]...), outX)
	if err != nil {
		return nil, nil, err
	}
	fy, err := tf.FromFloats(Shape{rows, depth}, outY)
	if err != nil {
		return nil, nil, err
	}
	return fx, fy, nil
}

// Optimizer updates model variables from gradients. The concrete types
// are SGD, Momentum and Adam.
type (
	// Optimizer is the update rule interface.
	Optimizer = tf.Optimizer
	// SGD is plain stochastic gradient descent.
	SGD = tf.SGD
	// Momentum is SGD with classical momentum.
	Momentum = tf.Momentum
	// Adam is the Adam optimizer.
	Adam = tf.Adam
)

// Model bundles the standard node set of a trainable classification
// model (placeholders, logits, loss, predictions, accuracy).
type Model = models.Handles

// NewMNISTCNN builds the small convolutional MNIST classifier used in
// the paper's §5.4 distributed-training experiment. The same seed
// produces identical initial weights — required for data-parallel
// replicas.
func NewMNISTCNN(seed int64) Model { return models.MNISTCNN(seed) }

// NewMNISTMLP builds a two-layer perceptron MNIST classifier.
func NewMNISTMLP(seed int64) Model { return models.MNISTMLP(seed) }

// NewCIFARCNN builds a convolutional CIFAR-10 classifier.
func NewCIFARCNN(seed int64) Model { return models.CIFARCNN(seed) }

// ModelSpec describes a pre-trained network by the two properties the
// paper's inference experiments depend on: on-disk byte size (enclave
// memory pressure) and per-image forward FLOPs (base latency).
type ModelSpec = models.InferenceSpec

// PaperModels returns the three networks of Figures 5 and 6: Densenet
// (42 MB), Inception-v3 (91 MB) and Inception-v4 (163 MB).
func PaperModels() []ModelSpec { return models.PaperModels() }

// BuildInferenceModel synthesizes a Lite model matching a spec's size
// and FLOPs (the stand-in for downloading pre-trained weights).
func BuildInferenceModel(spec ModelSpec) *LiteModel { return models.BuildInferenceModel(spec) }

// BuildQuantizedInferenceModel synthesizes the spec's network with int8
// weight quantization (§7.2 model optimization), shrinking the enclave
// working set ~4×.
func BuildQuantizedInferenceModel(spec ModelSpec) (*LiteModel, error) {
	return models.BuildQuantizedInferenceModel(spec)
}

// RandomImageInput builds a deterministic input batch for a spec.
func RandomImageInput(spec ModelSpec, batch int, seed int64) *Tensor {
	return models.RandomImageInput(spec, batch, seed)
}

// TrainConfig configures a training run.
type TrainConfig struct {
	// Container hosts the computation; its device charges the enclave
	// cost model. Nil trains unmetered on the local process (tests).
	Container *Container
	// Model is the trainable model. Required.
	Model Model
	// XS and YS are the training inputs and one-hot labels. Required.
	XS, YS *Tensor
	// BatchSize is the minibatch size (the paper uses 100). Required.
	BatchSize int
	// Steps is the number of minibatch steps. Required.
	Steps int
	// Optimizer defaults to SGD with the paper's learning rate 0.0005.
	Optimizer Optimizer
	// Threads bounds compute parallelism (0 uses the container default).
	Threads int
	// Seed seeds variable initialization.
	Seed int64
	// Log, when set, receives one line per step.
	Log io.Writer
}

// TrainedModel is a model with a live session: variable state that can
// be trained, evaluated, snapshotted, frozen and exchanged.
type TrainedModel struct {
	sess    *tf.Session
	model   Model
	trainOp *tf.Node
	log     io.Writer
	loss    float64
}

// OpenModel wraps a model in a live session without training it —
// install weights with SetVariables or RestoreCheckpoint, evaluate with
// Accuracy, or train with TrainMore. A nil optimizer defaults to SGD
// with the paper's learning rate 0.0005; a nil container runs unmetered
// on the local process. Each Model value may be opened at most once
// (opening adds the optimizer's update operations to its graph).
func OpenModel(c *Container, model Model, opt Optimizer, threads int, seed int64) (*TrainedModel, error) {
	if model.Graph == nil {
		return nil, errors.New("securetf: OpenModel requires a model")
	}
	if opt == nil {
		opt = SGD{LR: 0.0005}
	}
	trainOp, err := tf.Minimize(model.Graph, opt, model.Loss)
	if err != nil {
		return nil, fmt.Errorf("securetf: build train op: %w", err)
	}
	sessOpts := []tf.SessionOption{tf.WithSeed(seed)}
	if c != nil {
		sessOpts = append(sessOpts, tf.WithDevice(c.Device(threads)))
	}
	return &TrainedModel{
		sess:    tf.NewSession(model.Graph, sessOpts...),
		model:   model,
		trainOp: trainOp,
	}, nil
}

// Train opens a model and runs minibatch training — the one-call form of
// OpenModel followed by TrainMore. Training is a real computation: the
// loss genuinely decreases on learnable data.
func Train(cfg TrainConfig) (*TrainedModel, error) {
	if cfg.XS == nil || cfg.YS == nil {
		return nil, errors.New("securetf: TrainConfig.XS and YS are required")
	}
	if cfg.BatchSize <= 0 || cfg.Steps <= 0 {
		return nil, errors.New("securetf: TrainConfig.BatchSize and Steps must be positive")
	}
	tm, err := OpenModel(cfg.Container, cfg.Model, cfg.Optimizer, cfg.Threads, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tm.log = cfg.Log
	if err := tm.TrainMore(cfg.XS, cfg.YS, cfg.BatchSize, cfg.Steps); err != nil {
		tm.Close()
		return nil, err
	}
	return tm, nil
}

// TrainMore runs additional minibatch steps on the live session,
// continuing from the current variable state (federated rounds, warm
// restarts).
func (m *TrainedModel) TrainMore(xs, ys *Tensor, batchSize, steps int) error {
	if steps <= 0 {
		return errors.New("securetf: TrainMore steps must be positive")
	}
	replica, err := dist.StepsOn(m.sess, m.model, m.trainOp, xs, ys, batchSize)
	if err != nil {
		return fmt.Errorf("securetf: TrainMore: %w", err)
	}
	for step := 0; step < steps; step++ {
		loss, _, err := replica.Step(step)
		if err != nil {
			return fmt.Errorf("securetf: training step %d: %w", step, err)
		}
		m.loss = loss
		if m.log != nil {
			fmt.Fprintf(m.log, "step %4d loss %.4f\n", step, m.loss)
		}
	}
	return nil
}

// LastLoss returns the loss of the final training step.
func (m *TrainedModel) LastLoss() float64 { return m.loss }

// evalBlock is how many rows Accuracy runs at once, so an evaluation's
// activations are one block's whatever the size of the set.
const evalBlock = 64

// Accuracy evaluates classification accuracy on a labelled set. It runs
// the set in blocks of rows and returns, bit for bit, what one Run over
// the whole set returns: each block's mean accuracy times its rows is
// its exact count of hits, and the float32 mean of the total is the
// Accuracy node's.
func (m *TrainedModel) Accuracy(xs, ys *Tensor) (float64, error) {
	var hits float64
	for step := 0; ; step++ {
		bx, by, err := tf.Minibatch(xs, ys, evalBlock, step)
		if err != nil {
			return 0, fmt.Errorf("securetf: evaluate: %w", err)
		}
		out, err := m.sess.Run(tf.Feeds{m.model.X: bx, m.model.Y: by}, []*tf.Node{m.model.Accuracy})
		if err != nil {
			return 0, fmt.Errorf("securetf: evaluate: %w", err)
		}
		rows := float64(bx.Shape()[0])
		hits += math.Round(float64(out[0].Floats()[0]) * rows)
		if n := xs.Shape()[0]; (step+1)*evalBlock >= n {
			return float64(float32(hits / float64(n))), nil
		}
	}
}

// Variables snapshots the current variable values by name (federated
// learning shares these instead of raw data).
func (m *TrainedModel) Variables() (map[string]*Tensor, error) {
	vars := make(map[string]*Tensor)
	for _, name := range m.sess.VariableNames() {
		v, err := m.sess.Variable(name)
		if err != nil {
			return nil, err
		}
		vars[name] = v
	}
	return vars, nil
}

// SetVariables overwrites variable values by name (installing an
// aggregated federated model, or parameters pulled from a server).
func (m *TrainedModel) SetVariables(vars map[string]*Tensor) error {
	for name, v := range vars {
		if err := m.sess.SetVariable(name, v); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint serializes the variable state (the paper's §4.1 checkpoint
// files).
func (m *TrainedModel) Checkpoint() []byte { return tf.SaveCheckpoint(m.sess) }

// RestoreCheckpoint loads variable state saved by Checkpoint.
func (m *TrainedModel) RestoreCheckpoint(data []byte) error {
	return tf.RestoreCheckpoint(m.sess, data)
}

// Freeze folds the variables into constants and returns the frozen
// inference graph (the paper's §4.1 frozen-graph workflow).
func (m *TrainedModel) Freeze() (*FrozenModel, error) {
	g, x, logits, err := models.FreezeForInference(m.model, m.sess)
	if err != nil {
		return nil, fmt.Errorf("securetf: freeze: %w", err)
	}
	return &FrozenModel{Graph: g, Input: x, Output: logits}, nil
}

// Close releases the session.
func (m *TrainedModel) Close() { m.sess.Close() }

// FrozenModel is a frozen inference graph with its I/O nodes.
type FrozenModel struct {
	Graph  *Graph
	Input  *Node
	Output *Node
}

// Marshal serializes the frozen graph with its interface (the Protocol
// Buffers exchange-format role of the paper's §4.1).
func (f *FrozenModel) Marshal() ([]byte, error) {
	data, err := tf.MarshalGraph(f.Graph)
	if err != nil {
		return nil, err
	}
	header := fmt.Sprintf("%s\x00%s\x00", f.Input.Name(), f.Output.Name())
	return append([]byte(header), data...), nil
}

// UnmarshalFrozenModel parses a frozen model saved by Marshal.
func UnmarshalFrozenModel(data []byte) (*FrozenModel, error) {
	var input, output string
	for i := 0; i < 2; i++ {
		j := -1
		for k, b := range data {
			if b == 0 {
				j = k
				break
			}
		}
		if j < 0 {
			return nil, errors.New("securetf: truncated frozen model header")
		}
		if i == 0 {
			input = string(data[:j])
		} else {
			output = string(data[:j])
		}
		data = data[j+1:]
	}
	g, err := tf.UnmarshalGraph(data)
	if err != nil {
		return nil, fmt.Errorf("securetf: unmarshal frozen graph: %w", err)
	}
	in, out := g.Node(input), g.Node(output)
	if in == nil || out == nil {
		return nil, fmt.Errorf("securetf: frozen model interface nodes %q/%q not found", input, output)
	}
	return &FrozenModel{Graph: g, Input: in, Output: out}, nil
}

// ConvertOptions configures frozen-graph → Lite conversion.
type ConvertOptions = tflite.ConvertOptions

// LiteModel is the compact flat inference format (TensorFlow Lite role).
type LiteModel = tflite.Model

// ConvertToLite converts the frozen graph to the Lite format, running
// the §7.2 optimizations (pruning, operator fusion, optional int8
// quantization).
func (f *FrozenModel) ConvertToLite(opts ConvertOptions) (*LiteModel, error) {
	m, err := tflite.Convert(f.Graph, []*tf.Node{f.Input}, []*tf.Node{f.Output}, opts)
	if err != nil {
		return nil, fmt.Errorf("securetf: convert to lite: %w", err)
	}
	return m, nil
}

// UnmarshalLiteModel parses a Lite model from its wire format. The
// model's weight buffers are sub-slices of data, not copies: the caller
// hands data over and must not modify it afterwards.
func UnmarshalLiteModel(data []byte) (*LiteModel, error) { return tflite.Unmarshal(data) }

// Classifier runs Lite-model inference inside a container.
type Classifier struct {
	ip *tflite.Interpreter
}

// NewClassifier loads a Lite model into an interpreter whose compute and
// memory traffic are charged to the container's cost model.
func NewClassifier(c *Container, model *LiteModel, threads int) (*Classifier, error) {
	var opts []tflite.Option
	if c != nil {
		opts = append(opts, tflite.WithDevice(c.Device(threads)))
	}
	ip, err := tflite.NewInterpreter(model, opts...)
	if err != nil {
		return nil, fmt.Errorf("securetf: new classifier: %w", err)
	}
	return &Classifier{ip: ip}, nil
}

// Run feeds a batch and returns the raw output tensor (class
// probabilities for the zoo models). The tensor is the interpreter's,
// valid until the next Run, which may compute into it again: copy to
// keep it, or to feed it back in.
func (cl *Classifier) Run(batch *Tensor) (*Tensor, error) {
	if err := cl.ip.SetInput(0, batch); err != nil {
		return nil, err
	}
	if err := cl.ip.Invoke(); err != nil {
		return nil, err
	}
	return cl.ip.Output(0)
}

// Classify feeds a batch and returns the argmax class per row.
func (cl *Classifier) Classify(batch *Tensor) ([]int, error) {
	out, err := cl.Run(batch)
	if err != nil {
		return nil, err
	}
	shape := out.Shape()
	if len(shape) != 2 {
		return nil, fmt.Errorf("securetf: classifier output shape %v is not [batch, classes]", shape)
	}
	classes := make([]int, shape[0])
	if err := kernels.ArgMaxRows(classes, out.Floats(), shape[1]); err != nil {
		return nil, fmt.Errorf("securetf: classifier output shape %v: %w", shape, err)
	}
	return classes, nil
}

// Close releases the interpreter.
func (cl *Classifier) Close() { cl.ip.Close() }
