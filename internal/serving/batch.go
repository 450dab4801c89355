package serving

import (
	"fmt"
	"slices"
	"time"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
)

// request is one admitted inference request waiting for dispatch. It
// is its connection's record, reused every round: the batch that holds
// it writes its reply tensor and then answers it on resp, once, and
// touches it no more, and the connection fills it in again only after
// that answer.
type request struct {
	version  int  // 0 = serving version
	fallback bool // canary-routed: degrade to serving if version vanishes
	argmax   bool
	input    *tf.Tensor
	rows     int
	start    time.Duration // virtual enqueue time
	resp     chan WireResponse
	reply    *tf.Tensor // the rows (or classes) of the last OK answer
	shape    tf.Shape   // the reply's shape as the batch derives it
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
// gateway degenerates to the unbatched per-request path. The window is
// armed only when first leaves room in the batch.
func (g *Gateway) collect(m *servedModel, first *request) (batch []*request, carry *request) {
	batch = []*request{first}
	rows := first.rows
	maxBatch, window := g.cfg.MaxBatch, g.cfg.BatchWindow
	if maxBatch <= 1 || window <= 0 || rows >= maxBatch {
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
// replica once and copies each caller's output rows into its reply
// tensor before the replica, whose output they are, goes back to the
// pool. Canary-routed requests whose candidate version vanished
// mid-flight fall back to the serving version; pinned requests to a
// missing version get NOT_FOUND.
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
	var (
		out       *tf.Tensor
		argmaxErr error
	)
	if err = ip.SetInput(0, input); err == nil {
		if err = ip.Invoke(); err == nil {
			if out, err = ip.Output(0); err == nil {
				argmaxErr, err = copyReplies(out, reqs)
			}
		}
	}
	v.pool.release(ip)
	if err != nil {
		v.errors.Add(int64(len(reqs)))
		fail(reqs, WireResponse{Status: StatusInternal, Message: err.Error()})
		return
	}
	v.batches.Add(1)
	now := g.clock.Now()
	for _, req := range reqs {
		if req.argmax && argmaxErr != nil {
			v.errors.Add(1)
			req.resp <- WireResponse{Status: StatusInternal, Message: argmaxErr.Error()}
			continue
		}
		v.served.Add(1)
		v.lat.record(now - req.start)
		req.resp <- WireResponse{Status: StatusOK, Version: resolved, Output: req.reply, ServiceVtime: now - req.start}
	}
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

// copyReplies copies each member's rows of the group's output out (all
// of it for a group of one, whose output need not have batch rows) into
// the member's reply tensor, reduced to their argmax class per row for a
// member that asked: the classic §4.2 contract, where only the labels
// leave the enclave, 4 bytes a row. err fails the whole group.
// argmaxErr, set when out has no classes to reduce, fails only the
// members that asked for a reduction, whose reply tensors it leaves as
// they were.
func copyReplies(out *tf.Tensor, reqs []*request) (argmaxErr, err error) {
	shape, dtype := out.Shape(), out.DType()
	if dtype != tf.Float32 && dtype != tf.Int32 {
		return nil, fmt.Errorf("serving: cannot split dtype %v", dtype)
	}
	if len(reqs) > 1 {
		total := 0
		for _, req := range reqs {
			total += req.rows
		}
		if len(shape) == 0 {
			return nil, fmt.Errorf("serving: batched output is a scalar")
		}
		if shape[0] != total {
			return nil, fmt.Errorf("serving: batched output has %d rows for %d input rows", shape[0], total)
		}
	}
	_, cols := kernels.RowsCols(shape)
	if dtype == tf.Float32 && (len(shape) < 2 || cols < 1) {
		argmaxErr = fmt.Errorf("serving: output shape %v is not [rows, classes]", shape)
	}
	off := 0
	for _, req := range reqs {
		n := out.NumElements()
		req.shape = append(req.shape[:0], shape...)
		if len(reqs) > 1 {
			n = req.rows * n / shape[0]
			req.shape[0] = req.rows
		}
		switch {
		case !req.argmax && dtype == tf.Int32:
			req.reply = tf.Reuse(req.reply, dtype, req.shape)
			copy(req.reply.Ints(), out.Ints()[off:])
		case !req.argmax:
			req.reply = tf.Reuse(req.reply, dtype, req.shape)
			copy(req.reply.Floats(), out.Floats()[off:])
		case dtype == tf.Int32: // a model with an ArgMax head
			req.shape = append(req.shape[:0], n)
			req.reply = tf.Reuse(req.reply, tf.Int32, req.shape)
			copy(req.reply.Ints(), out.Ints()[off:])
		case argmaxErr == nil:
			req.shape = append(req.shape[:0], n/cols)
			req.reply = tf.Reuse(req.reply, tf.Int32, req.shape)
			if err := kernels.ArgMaxRows(req.reply.Ints(), out.Floats()[off:off+n], cols); err != nil {
				return nil, err
			}
		}
		off += n
	}
	return argmaxErr, nil
}
