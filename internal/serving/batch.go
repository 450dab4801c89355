package serving

import (
	"fmt"
	"slices"
	"time"

	"github.com/securetf/securetf/internal/tf"
)

// request is one admitted inference request waiting for dispatch.
type request struct {
	version  int  // 0 = serving version
	fallback bool // canary-routed: degrade to serving if version vanishes
	argmax   bool
	input    *tf.Tensor
	rows     int
	start    time.Duration // virtual enqueue time
	resp     chan WireResponse
}

// dispatch is the per-model dispatcher loop: it pulls admitted requests
// off the bounded queue, coalesces those arriving within the batching
// window into micro-batches and hands each batch to the interpreter
// pool. Batches execute on their own goroutines, bounded by the model's
// in-flight slots (one per replica): when every replica is busy the
// dispatcher stalls, the admission queue genuinely backs up, and
// overflow is rejected — backpressure reaches the client instead of
// piling up as parked goroutines.
func (g *Gateway) dispatch(m *servedModel) {
	defer g.dispatchWG.Done()
	var carry *request // overflow from the previous collect
	for {
		if m.gate != nil {
			select {
			case <-m.gate:
			case <-g.drain:
			}
		}
		select {
		case <-m.tokens:
		case <-g.drain:
			g.refuse(m, carry)
			return
		}
		first := carry
		carry = nil
		if first == nil {
			select {
			case first = <-m.queue:
				m.pending.Add(-1)
			case <-g.drain:
				m.releaseSlot()
				g.refuse(m, nil)
				return
			}
		}
		var batch []*request
		batch, carry = g.collect(m, first)
		g.inflight.Add(1)
		go func() {
			defer g.inflight.Done()
			g.runBatch(m, batch)
			m.releaseSlot()
			g.maybeTick()
		}()
	}
}

// refuse answers carry (if any) and everything still queued with
// StatusShuttingDown; conn handlers are gone by the time drain closes,
// so no request is silently dropped.
func (g *Gateway) refuse(m *servedModel, carry *request) {
	if carry != nil {
		carry.resp <- WireResponse{Status: StatusShuttingDown, Message: "gateway draining"}
	}
	for {
		select {
		case req := <-m.queue:
			m.pending.Add(-1)
			req.resp <- WireResponse{Status: StatusShuttingDown, Message: "gateway draining"}
		default:
			return
		}
	}
}

// collect gathers requests for one micro-batch: starting from first, it
// keeps accepting queued requests until the batch holds MaxBatch input
// rows or the batching window elapses. A request that would push the
// batch past MaxBatch is carried into the next batch, so the configured
// bound on per-invoke rows holds (a single oversized request still runs
// alone — it cannot be split). With MaxBatch <= 1 or a zero window the
// gateway degenerates to the unbatched per-request path.
func (g *Gateway) collect(m *servedModel, first *request) (batch []*request, carry *request) {
	batch = []*request{first}
	rows := first.rows
	maxBatch, window := g.cfg.MaxBatch, g.cfg.BatchWindow
	if maxBatch <= 1 || window <= 0 {
		return batch, nil
	}
	//securetf:allow nowallclock the batch window paces real request arrival; batch contents stay bitwise identical to per-request runs
	timer := time.NewTimer(window)
	defer timer.Stop()
	for rows < maxBatch {
		select {
		case req := <-m.queue:
			m.pending.Add(-1)
			if rows+req.rows > maxBatch {
				return batch, req
			}
			batch = append(batch, req)
			rows += req.rows
		case <-timer.C:
			return batch, nil
		case <-g.drain:
			return batch, nil
		}
	}
	return batch, nil
}

// group is batch members that can share one interpreter invocation:
// same resolved version, same dtype, same per-row shape.
type group struct {
	version int
	reqs    []*request
}

// fits reports whether req can join the group.
func (gr group) fits(req *request) bool {
	first := gr.reqs[0].input
	return gr.version == req.version && first.DType() == req.input.DType() &&
		slices.Equal(first.Shape()[1:], req.input.Shape()[1:])
}

// runBatch resolves each request's version and executes the batch as one
// pooled invocation per compatible group, the groups in the order their
// first members arrived.
func (g *Gateway) runBatch(m *servedModel, batch []*request) {
	groups := make([]group, 0, 1)
	for _, req := range batch {
		i := slices.IndexFunc(groups, func(gr group) bool { return gr.fits(req) })
		if i < 0 {
			i = len(groups)
			groups = append(groups, group{version: req.version})
		}
		groups[i].reqs = append(groups[i].reqs, req)
	}
	for _, gr := range groups {
		g.runGroup(m, gr.version, gr.reqs)
	}
}

// runGroup stacks a group's inputs into one tensor, invokes a pooled
// replica once and splits the output rows back per caller. Canary-routed
// requests whose candidate version vanished mid-flight fall back to the
// serving version; pinned requests to a missing version get NOT_FOUND.
func (g *Gateway) runGroup(m *servedModel, version int, reqs []*request) {
	v, resolved := m.acquire(version)
	if v == nil {
		var fallback []*request
		for _, req := range reqs {
			if req.fallback {
				fallback = append(fallback, req)
			} else {
				req.resp <- WireResponse{
					Status:  StatusNotFound,
					Message: fmt.Sprintf("model %s has no version %d", m.name, resolved),
				}
			}
		}
		if len(fallback) == 0 {
			return
		}
		reqs = fallback
		if v, resolved = m.acquire(0); v == nil {
			fail(reqs, WireResponse{
				Status:  StatusNotFound,
				Message: fmt.Sprintf("model %s has no serving version", m.name),
			})
			return
		}
	}
	defer v.inflight.Done()
	// Score this group toward an active canary window once it resolves:
	// the verdict fires on the batch path, deterministically in virtual
	// time.
	defer g.canaryObserve(m, resolved, len(reqs))

	input, err := stackInputs(reqs)
	if err != nil {
		v.errors.Add(int64(len(reqs)))
		fail(reqs, WireResponse{Status: StatusBadRequest, Message: err.Error()})
		return
	}
	ip, err := v.pool.acquire()
	if err != nil {
		v.errors.Add(int64(len(reqs)))
		fail(reqs, WireResponse{Status: StatusInternal, Message: err.Error()})
		return
	}
	var out *tf.Tensor
	if err = ip.SetInput(0, input); err == nil {
		if err = ip.Invoke(); err == nil {
			out, err = ip.Output(0)
		}
	}
	v.pool.release(ip)
	if err != nil {
		v.errors.Add(int64(len(reqs)))
		fail(reqs, WireResponse{Status: StatusInternal, Message: err.Error()})
		return
	}
	outputs, err := splitRows(out, reqs)
	if err != nil {
		v.errors.Add(int64(len(reqs)))
		fail(reqs, WireResponse{Status: StatusInternal, Message: err.Error()})
		return
	}
	v.batches.Add(1)
	now := g.clock.Now()
	for i, req := range reqs {
		out := outputs[i]
		if req.argmax {
			// Reduce in the enclave: only the class labels leave on the
			// wire (4 bytes/row), matching the classic §4.2 contract.
			reduced, err := argmaxTensor(out)
			if err != nil {
				v.errors.Add(1)
				req.resp <- WireResponse{Status: StatusInternal, Message: err.Error()}
				continue
			}
			out = reduced
		}
		v.served.Add(1)
		v.lat.record(now - req.start)
		req.resp <- WireResponse{Status: StatusOK, Version: resolved, Output: out, ServiceVtime: now - req.start}
	}
}

// argmaxTensor reduces a [rows, classes] output to an Int32 [rows]
// tensor of argmax classes.
func argmaxTensor(out *tf.Tensor) (*tf.Tensor, error) {
	classes, err := ArgmaxRows(out)
	if err != nil {
		return nil, err
	}
	t := tf.NewTensor(tf.Int32, tf.Shape{len(classes)})
	for i, c := range classes {
		t.Ints()[i] = int32(c)
	}
	return t, nil
}

// fail answers every request in reqs with the same error response.
func fail(reqs []*request, resp WireResponse) {
	for _, req := range reqs {
		req.resp <- resp
	}
}

// stackInputs concatenates the group's inputs along the leading (batch)
// dimension. A single-request group passes its tensor through untouched.
func stackInputs(reqs []*request) (*tf.Tensor, error) {
	if len(reqs) == 1 {
		return reqs[0].input, nil
	}
	first := reqs[0].input
	shape := first.Shape().Clone()
	rows := 0
	for _, req := range reqs {
		rows += req.rows
	}
	shape[0] = rows
	if first.DType() != tf.Float32 {
		return nil, fmt.Errorf("serving: cannot batch dtype %v", first.DType())
	}
	stacked := tf.NewTensor(tf.Float32, shape)
	dst := stacked.Floats()
	off := 0
	for _, req := range reqs {
		off += copy(dst[off:], req.input.Floats())
	}
	return stacked, nil
}

// splitRows slices the batched output back into one tensor per request,
// by each request's input row count.
func splitRows(out *tf.Tensor, reqs []*request) ([]*tf.Tensor, error) {
	if len(reqs) == 1 {
		return []*tf.Tensor{out}, nil
	}
	shape := out.Shape()
	if len(shape) == 0 {
		return nil, fmt.Errorf("serving: batched output is a scalar")
	}
	rowElems := 1
	for _, d := range shape[1:] {
		rowElems *= d
	}
	total := 0
	for _, req := range reqs {
		total += req.rows
	}
	if shape[0] != total {
		return nil, fmt.Errorf("serving: batched output has %d rows for %d input rows", shape[0], total)
	}
	outputs := make([]*tf.Tensor, len(reqs))
	off := 0
	for i, req := range reqs {
		rowShape := shape.Clone()
		rowShape[0] = req.rows
		var (
			t   *tf.Tensor
			err error
		)
		switch out.DType() {
		case tf.Float32:
			t, err = tf.FromFloats(rowShape, out.Floats()[off*rowElems:(off+req.rows)*rowElems])
		case tf.Int32:
			t, err = tf.FromInts(rowShape, out.Ints()[off*rowElems:(off+req.rows)*rowElems])
		default:
			err = fmt.Errorf("serving: cannot split dtype %v", out.DType())
		}
		if err != nil {
			return nil, err
		}
		outputs[i] = t
		off += req.rows
	}
	return outputs, nil
}
