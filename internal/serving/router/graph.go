// Inference graphs: declarative multi-step pipelines compiled against
// the router's placement and executed across the fleet, so one client
// call flows preprocess → classify → postprocess through several
// attested nodes. The node kinds follow the serving-graph vocabulary:
// Sequence pipes outputs forward, Ensemble fans out and averages,
// Splitter spreads traffic by weight, Switch branches on the predicted
// class. Every step is routed with the same health-weighted spread and
// fail-over as a plain model request, and every execution leaves a
// per-step virtual-time trace in the router's metrics.
package router

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securetf/securetf/internal/serving"
	"github.com/securetf/securetf/internal/tf"
)

// Graph node kinds.
const (
	// Sequence runs its steps in order, feeding each step's output to the
	// next as input. A failed step fails the graph.
	Sequence = "sequence"
	// Ensemble runs every step concurrently on the same input and
	// averages their Float32 outputs elementwise. Steps whose nodes died
	// are dropped from the average; the ensemble degrades down to a
	// single survivor before it fails.
	Ensemble = "ensemble"
	// Splitter routes each execution to one step picked by deterministic
	// weighted spread; if the pick fails, the remaining steps are tried
	// in declaration order.
	Splitter = "splitter"
	// Switch inspects the input's predicted class (argmax of the
	// column-summed scores, or the first element of an Int32 input) and
	// runs the step whose When matches, else the default step (no When).
	// If the matched step fails, the default is tried.
	Switch = "switch"
)

// GraphStep is one edge of a graph node: either a placed model or a
// reference to another node of the same graph (exactly one of the two).
type GraphStep struct {
	// Name labels the step in traces (defaults to the model or node ref).
	Name string
	// Model invokes a placed model, spread across its hosting nodes.
	Model string
	// NodeRef invokes another node of this graph.
	NodeRef string
	// Version pins the model version (0 = the node's serving version).
	Version int
	// Argmax asks the serving node to reduce this step's output to class
	// labels — useful as a final step so only labels leave the fleet.
	Argmax bool
	// Weight biases Splitter picks (default 1; ignored elsewhere).
	Weight int
	// When is the class this step handles in a Switch node; nil marks
	// the default step (ignored elsewhere).
	When *int
}

// label names the step in traces.
func (s GraphStep) label() string {
	if s.Name != "" {
		return s.Name
	}
	if s.Model != "" {
		return s.Model
	}
	return s.NodeRef
}

// GraphNode is one named node of a graph.
type GraphNode struct {
	Kind  string // Sequence, Ensemble, Splitter or Switch
	Steps []GraphStep
}

// GraphSpec declares one inference graph. Execution starts at Root
// (default "root"). The graph name shares the request namespace with
// model names: a client request naming the graph executes it.
type GraphSpec struct {
	Name  string
	Root  string
	Nodes map[string]GraphNode
}

// compiledGraph is a validated graph plus its execution state.
type compiledGraph struct {
	spec GraphSpec
	root string
	// splits holds the deterministic weighted-pick counter per Splitter
	// node.
	splits map[string]*atomic.Int64
}

// compileGraph validates spec against the placement: the root exists,
// every step names exactly one of a placed model or an existing node,
// and node references form no cycle — so a graph that cannot execute is
// rejected at construction, the manifest idiom applied to graph shape.
func compileGraph(spec GraphSpec, placement map[string][]*node) (*compiledGraph, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("router: graph with no name")
	}
	if _, clash := placement[spec.Name]; clash {
		return nil, fmt.Errorf("router: graph %q collides with a placed model name", spec.Name)
	}
	if len(spec.Nodes) == 0 {
		return nil, fmt.Errorf("router: graph %q has no nodes", spec.Name)
	}
	root := spec.Root
	if root == "" {
		root = "root"
	}
	if _, ok := spec.Nodes[root]; !ok {
		return nil, fmt.Errorf("router: graph %q has no root node %q", spec.Name, root)
	}
	cg := &compiledGraph{spec: spec, root: root, splits: make(map[string]*atomic.Int64)}
	for name, gn := range spec.Nodes {
		if len(gn.Steps) == 0 {
			return nil, fmt.Errorf("router: graph %q node %q has no steps", spec.Name, name)
		}
		defaults := 0
		for i, step := range gn.Steps {
			if (step.Model == "") == (step.NodeRef == "") {
				return nil, fmt.Errorf("router: graph %q node %q step %d must set exactly one of Model and NodeRef",
					spec.Name, name, i)
			}
			if step.Model != "" {
				if _, placed := placement[step.Model]; !placed {
					return nil, fmt.Errorf("%w: graph %q step %q needs model %q, which no node places",
						ErrManifestMismatch, spec.Name, step.label(), step.Model)
				}
			}
			if step.NodeRef != "" {
				if _, ok := spec.Nodes[step.NodeRef]; !ok {
					return nil, fmt.Errorf("router: graph %q node %q references unknown node %q",
						spec.Name, name, step.NodeRef)
				}
			}
			if step.Weight < 0 {
				return nil, fmt.Errorf("router: graph %q node %q step %d has negative weight", spec.Name, name, i)
			}
			if step.When == nil {
				defaults++
			}
		}
		switch gn.Kind {
		case Sequence, Ensemble:
		case Splitter:
			cg.splits[name] = &atomic.Int64{}
		case Switch:
			if defaults > 1 {
				return nil, fmt.Errorf("router: graph %q switch %q has %d default steps; at most one",
					spec.Name, name, defaults)
			}
		default:
			return nil, fmt.Errorf("router: graph %q node %q has unknown kind %q", spec.Name, name, gn.Kind)
		}
	}
	if err := cg.checkAcyclic(); err != nil {
		return nil, err
	}
	return cg, nil
}

// checkAcyclic rejects node-reference cycles by depth-first search.
func (cg *compiledGraph) checkAcyclic() error {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int)
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case visiting:
			return fmt.Errorf("router: graph %q has a cycle through node %q", cg.spec.Name, name)
		case done:
			return nil
		}
		state[name] = visiting
		for _, step := range cg.spec.Nodes[name].Steps {
			if step.NodeRef != "" {
				if err := visit(step.NodeRef); err != nil {
					return err
				}
			}
		}
		state[name] = done
		return nil
	}
	names := make([]string, 0, len(cg.spec.Nodes))
	for name := range cg.spec.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

// stepError is a graph-step failure that still carries a wire status,
// so an overloaded backend propagates to the client as StatusOverloaded
// (and its retry policy engages) rather than flattening to an internal
// error.
type stepError struct {
	status serving.Status
	msg    string
}

// graphRun is one customer connection's execution state, which each of
// its requests reuses in turn: the step records of the current graph
// execution, and the stage tensors its routed steps' replies are decoded
// into, the i-th step to start into the i-th. Both are appended to under
// mu, because Ensemble steps run concurrently. A response's tensor is a
// stage tensor, which holds still until ServeRounds has written it: the
// next request starts after that.
type graphRun struct {
	r      *Router
	mu     sync.Mutex
	st     []StepTrace
	stages []*tf.Tensor
	next   int // the stage the next step to start decodes into
}

// reset readies run for a new request.
func (run *graphRun) reset() { run.st, run.next = run.st[:0], 0 }

// record appends one step trace.
func (run *graphRun) record(t StepTrace) {
	run.mu.Lock()
	run.st = append(run.st, t)
	run.mu.Unlock()
}

// forward is Router.forwardModel into the next stage tensor, which an
// OK reply's tensor replaces if it did not fit.
func (run *graphRun) forward(model string, version int, argmax bool, req serving.WireRequest) (serving.WireResponse, string) {
	run.mu.Lock()
	if run.next == len(run.stages) {
		run.stages = append(run.stages, nil)
	}
	stage := run.next
	into := run.stages[stage]
	run.next++
	run.mu.Unlock()
	resp, nodeName := run.r.forwardModel(model, version, argmax, req, into)
	if resp.Status == serving.StatusOK {
		run.mu.Lock()
		run.stages[stage] = resp.Output
		run.mu.Unlock()
	}
	return resp, nodeName
}

// routeGraph executes cg for one request with run and answers with the
// final output, the summed per-step virtual service time, and the trace
// retained in the router's metrics.
func (r *Router) routeGraph(run *graphRun, cg *compiledGraph, req serving.WireRequest) serving.WireResponse {
	if req.Input == nil {
		return serving.WireResponse{Status: serving.StatusBadRequest, Message: "graph request without input"}
	}
	out, total, serr := run.execNode(cg, cg.root, req.Input)
	failed := ""
	if serr != nil {
		failed = serr.msg
	}
	r.traces.record(GraphTrace{Graph: cg.spec.Name, Steps: run.st, Total: total, Err: failed})
	if serr != nil {
		return serving.WireResponse{Status: serr.status, Message: serr.msg, ServiceVtime: total}
	}
	if req.Argmax && out.DType() != tf.Int32 {
		classes, err := serving.ArgmaxRows(out)
		if err != nil {
			return serving.WireResponse{Status: serving.StatusInternal, Message: err.Error(), ServiceVtime: total}
		}
		t := tf.NewTensor(tf.Int32, tf.Shape{len(classes)})
		for i, c := range classes {
			t.Ints()[i] = int32(c)
		}
		out = t
	}
	return serving.WireResponse{Status: serving.StatusOK, Version: 1, Output: out, ServiceVtime: total}
}

// execNode runs one graph node on input.
func (run *graphRun) execNode(cg *compiledGraph, name string, input *tf.Tensor) (*tf.Tensor, time.Duration, *stepError) {
	gn := cg.spec.Nodes[name]
	switch gn.Kind {
	case Sequence:
		return run.execSequence(cg, gn, input)
	case Ensemble:
		return run.execEnsemble(cg, gn, input)
	case Splitter:
		return run.execSplitter(cg, name, gn, input)
	case Switch:
		return run.execSwitch(cg, gn, input)
	}
	return nil, 0, &stepError{serving.StatusInternal, fmt.Sprintf("graph node %q has unknown kind", name)}
}

// execStep runs one step: a routed model invocation or a nested node.
func (run *graphRun) execStep(cg *compiledGraph, step GraphStep, input *tf.Tensor) (*tf.Tensor, time.Duration, *stepError) {
	if step.NodeRef != "" {
		return run.execNode(cg, step.NodeRef, input)
	}
	resp, nodeName := run.forward(step.Model, step.Version, step.Argmax, serving.WireRequest{Input: input})
	t := StepTrace{Step: step.label(), Model: step.Model, Node: nodeName, Vtime: resp.ServiceVtime}
	if resp.Status != serving.StatusOK {
		t.Err = resp.Message
		run.record(t)
		return nil, resp.ServiceVtime, &stepError{resp.Status, resp.Message}
	}
	run.record(t)
	return resp.Output, resp.ServiceVtime, nil
}

// execSequence pipes each step's output into the next; virtual time is
// the sum of the steps'.
func (run *graphRun) execSequence(cg *compiledGraph, gn GraphNode, input *tf.Tensor) (*tf.Tensor, time.Duration, *stepError) {
	var total time.Duration
	cur := input
	for _, step := range gn.Steps {
		out, vt, serr := run.execStep(cg, step, cur)
		total += vt
		if serr != nil {
			return nil, total, serr
		}
		cur = out
	}
	return cur, total, nil
}

// execEnsemble fans the input out to every step concurrently and
// averages the Float32 outputs elementwise. Steps that fail are dropped
// from the average — the ensemble degrades to its survivors — and only
// when every step fails does the node fail, with the first step's
// error. Virtual time is the slowest branch's (they run in parallel).
func (run *graphRun) execEnsemble(cg *compiledGraph, gn GraphNode, input *tf.Tensor) (*tf.Tensor, time.Duration, *stepError) {
	outs := make([]*tf.Tensor, len(gn.Steps))
	vts := make([]time.Duration, len(gn.Steps))
	errs := make([]*stepError, len(gn.Steps))
	var wg sync.WaitGroup
	for i, step := range gn.Steps {
		wg.Add(1)
		go func(i int, step GraphStep) {
			defer wg.Done()
			outs[i], vts[i], errs[i] = run.execStep(cg, step, input)
		}(i, step)
	}
	wg.Wait()
	var (
		total     time.Duration
		survivors []*tf.Tensor
	)
	for i := range gn.Steps {
		if vts[i] > total {
			total = vts[i]
		}
		if errs[i] == nil {
			survivors = append(survivors, outs[i])
		}
	}
	if len(survivors) == 0 {
		for _, serr := range errs {
			if serr != nil {
				return nil, total, serr
			}
		}
	}
	out, err := meanTensors(survivors)
	if err != nil {
		return nil, total, &stepError{serving.StatusInternal, err.Error()}
	}
	return out, total, nil
}

// execSplitter picks one step by deterministic weighted spread (a
// modular counter over the cumulative weights, so a 3:1 split sends
// every fourth execution to the light branch) and falls over to the
// remaining steps in declaration order when the pick fails.
func (run *graphRun) execSplitter(cg *compiledGraph, name string, gn GraphNode, input *tf.Tensor) (*tf.Tensor, time.Duration, *stepError) {
	total := 0
	for _, step := range gn.Steps {
		total += splitWeight(step)
	}
	n := int(cg.splits[name].Add(1)-1) % total
	pick := 0
	for i, step := range gn.Steps {
		if n < splitWeight(step) {
			pick = i
			break
		}
		n -= splitWeight(step)
	}
	var (
		sumVt time.Duration
		first *stepError
	)
	for off := 0; off < len(gn.Steps); off++ {
		step := gn.Steps[(pick+off)%len(gn.Steps)]
		out, vt, serr := run.execStep(cg, step, input)
		sumVt += vt
		if serr == nil {
			return out, sumVt, nil
		}
		if first == nil {
			first = serr
		}
	}
	return nil, sumVt, first
}

// splitWeight is a step's Splitter weight (default 1).
func splitWeight(s GraphStep) int {
	if s.Weight < 1 {
		return 1
	}
	return s.Weight
}

// execSwitch routes on the input's predicted class: the step whose When
// matches runs; with no match — or when the matched step fails — the
// default step (no When) runs.
func (run *graphRun) execSwitch(cg *compiledGraph, gn GraphNode, input *tf.Tensor) (*tf.Tensor, time.Duration, *stepError) {
	class := selectorClass(input)
	var matched, fallback *GraphStep
	for i := range gn.Steps {
		step := &gn.Steps[i]
		if step.When == nil {
			fallback = step
			continue
		}
		if *step.When == class && matched == nil {
			matched = step
		}
	}
	var total time.Duration
	if matched != nil {
		out, vt, serr := run.execStep(cg, *matched, input)
		total += vt
		if serr == nil {
			return out, total, nil
		}
		if fallback == nil {
			return nil, total, serr
		}
	}
	if fallback == nil {
		return nil, total, &stepError{
			serving.StatusBadRequest,
			fmt.Sprintf("switch has no branch for class %d and no default", class),
		}
	}
	out, vt, serr := run.execStep(cg, *fallback, input)
	return out, total + vt, serr
}

// selectorClass extracts the Switch selector from a tensor: the first
// element of an Int32 tensor (a label from an upstream Argmax step), or
// the argmax of the column-summed scores of a Float32 tensor.
func selectorClass(t *tf.Tensor) int {
	if t.DType() == tf.Int32 {
		if t.NumElements() == 0 {
			return 0
		}
		return int(t.Ints()[0])
	}
	shape := t.Shape()
	if len(shape) == 0 || t.NumElements() == 0 {
		return 0
	}
	cols := shape[len(shape)-1]
	sums := make([]float32, cols)
	for i, v := range t.Floats() {
		sums[i%cols] += v
	}
	best := 0
	for c, v := range sums {
		if v > sums[best] {
			best = c
		}
	}
	return best
}

// meanTensors averages same-shape Float32 tensors elementwise. A single
// tensor passes through regardless of dtype.
func meanTensors(ts []*tf.Tensor) (*tf.Tensor, error) {
	if len(ts) == 1 {
		return ts[0], nil
	}
	first := ts[0]
	if first.DType() != tf.Float32 {
		return nil, fmt.Errorf("router: cannot ensemble dtype %v", first.DType())
	}
	for _, t := range ts[1:] {
		if t.DType() != tf.Float32 || !t.Shape().Equal(first.Shape()) {
			return nil, fmt.Errorf("router: ensemble outputs disagree on dtype or shape")
		}
	}
	out := tf.NewTensor(tf.Float32, first.Shape().Clone())
	acc := out.Floats()
	for _, t := range ts {
		for i, v := range t.Floats() {
			acc[i] += v
		}
	}
	inv := 1 / float32(len(ts))
	for i := range acc {
		acc[i] *= inv
	}
	return out, nil
}
