package serving

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/securetf/securetf/internal/core"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/kernels"
	"github.com/securetf/securetf/internal/vtime"
	"github.com/securetf/securetf/internal/wire"
)

// Sentinel errors mapped from wire statuses, so callers can react by
// kind: back off on ErrOverloaded, fail over on ErrShuttingDown.
var (
	ErrOverloaded   = errors.New("serving: overloaded")
	ErrNotFound     = errors.New("serving: model not found")
	ErrBadRequest   = errors.New("serving: bad request")
	ErrShuttingDown = errors.New("serving: shutting down")
	ErrInternal     = errors.New("serving: internal error")
)

// statusErr maps an error status and server message to a wrapped
// sentinel error.
func statusErr(status Status, msg string) error {
	var base error
	switch status {
	case StatusOverloaded:
		base = ErrOverloaded
	case StatusNotFound:
		base = ErrNotFound
	case StatusBadRequest:
		base = ErrBadRequest
	case StatusShuttingDown:
		base = ErrShuttingDown
	case StatusInternal:
		base = ErrInternal
	default:
		return fmt.Errorf("serving: status %v: %s", status, msg)
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// RetryPolicy makes a Client retry requests the gateway rejected with
// StatusOverloaded, with capped exponential backoff and deterministic
// jitter. Backoff durations are charged to the container's virtual
// clock, so retry behaviour is reproducible for a given workload.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3).
	MaxAttempts int
}

// The backoff before the first retry doubles per retry up to the cap.
const (
	baseBackoff = time.Millisecond
	maxBackoff  = 16 * time.Millisecond
)

// Client talks to a Gateway over one connection. It is safe for
// concurrent use: the request/response exchange is serialized with a
// mutex so goroutines cannot interleave frames on the shared stream.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	// wbuf holds the request frame last sent, rbuf the response frame
	// last received; both are guarded by mu. A response's tensor is
	// decoded into storage of its own, the caller's.
	wbuf, rbuf []byte
	clock      *vtime.Clock
	retry      *RetryPolicy
	retries    atomic.Int64
}

// Dial connects a container to a gateway, through the container's
// shielded dial when the network shield is provisioned. serverName must
// match a service identity issued by the CAS.
func Dial(c *core.Container, addr, serverName string) (*Client, error) {
	conn, err := c.Dial("tcp", addr, serverName)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, clock: c.Clock()}, nil
}

// NewClientConn wraps an already-established connection that speaks the
// serving protocol — the router client uses it after its manifest
// handshake, and the router's node pools after their placement check.
// clock may be nil; it only times retry backoffs.
func NewClientConn(conn net.Conn, clock *vtime.Clock) *Client {
	return &Client{conn: conn, clock: clock}
}

// SetRetry enables overload retries with p (zero fields take defaults).
// Only StatusOverloaded responses are retried — other errors, including
// ErrShuttingDown, surface immediately.
func (cl *Client) SetRetry(p RetryPolicy) {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	cl.mu.Lock()
	cl.retry = &p
	cl.mu.Unlock()
}

// Retries reports how many overload retries this client has performed.
func (cl *Client) Retries() int64 { return cl.retries.Load() }

// Infer sends input to model (version 0 = the gateway's serving version)
// and returns the raw output tensor plus the version that served it. An
// empty model name resolves to DefaultModelName.
func (cl *Client) Infer(model string, version int, input *tf.Tensor) (*tf.Tensor, int, error) {
	out, ver, _, err := cl.InferTimed(model, version, input)
	return out, ver, err
}

// InferTimed is Infer plus the serving node's virtual service time for
// the request — the per-step cost a router attributes to graph traces.
func (cl *Client) InferTimed(model string, version int, input *tf.Tensor) (*tf.Tensor, int, time.Duration, error) {
	resp, err := cl.do(WireRequest{Model: model, Version: version, Input: input})
	if err != nil {
		return nil, 0, 0, err
	}
	return resp.Output, resp.Version, resp.ServiceVtime, nil
}

// Classify sends input to model's serving version and returns the argmax
// class per row. The reduction runs server-side (the wire carries 4
// bytes per row, and only the label leaves the service). An empty model
// name resolves to DefaultModelName.
func (cl *Client) Classify(model string, input *tf.Tensor) ([]int, error) {
	resp, err := cl.do(WireRequest{Model: model, Argmax: true, Input: input})
	if err != nil {
		return nil, err
	}
	return ArgmaxRows(resp.Output)
}

// Models asks the gateway for its registered model names, sorted — the
// control round the router's placement check is built on.
func (cl *Client) Models() ([]string, error) {
	resp, err := cl.Do(WireRequest{ListModels: true})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusModels {
		return nil, statusErr(resp.Status, resp.Message)
	}
	if resp.Message == "" {
		return nil, nil
	}
	names := strings.Split(resp.Message, ",")
	sort.Strings(names)
	return names, nil
}

// do runs one request/response exchange, retrying overload rejections
// per the retry policy and mapping error statuses to sentinel errors.
// Each wire round is serialized under the mutex; backoffs happen outside
// it so other goroutines can interleave their rounds while this one
// waits.
func (cl *Client) do(req WireRequest) (WireResponse, error) {
	cl.mu.Lock()
	policy := cl.retry
	cl.mu.Unlock()
	attempts := 1
	if policy != nil {
		attempts = policy.MaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			cl.backoff(req.Model, attempt)
			cl.retries.Add(1)
		}
		resp, err := cl.Do(req)
		if err != nil {
			return WireResponse{}, err
		}
		if resp.Status == StatusOK || resp.Status == StatusModels {
			return resp, nil
		}
		err = statusErr(resp.Status, resp.Message)
		if !errors.Is(err, ErrOverloaded) {
			return WireResponse{}, err
		}
		lastErr = err
	}
	return WireResponse{}, fmt.Errorf("%w (after %d attempts)", lastErr, attempts)
}

// Do runs one serialized wire round and returns the response as decoded,
// without retries or status-to-error mapping — the raw exchange the
// router's forwarding path uses, where a non-OK status must pass through
// to the caller rather than become a local error. An empty model name on
// an inference request resolves to DefaultModelName.
func (cl *Client) Do(req WireRequest) (WireResponse, error) { return DoInto(cl, req, nil) }

// DoInto is cl.Do that decodes an OK response's tensor into into when
// that has the tensor's dtype and shape, and into a new tensor
// otherwise, as a server connection decodes its requests: the router
// decodes each stage's reply into a tensor its customer's connection
// reuses. into must not be read or written by anyone else for the call.
func DoInto(cl *Client, req WireRequest, into *tf.Tensor) (WireResponse, error) {
	if req.Model == "" && !req.ListModels {
		req.Model = DefaultModelName
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	frame, err := appendRequest(wire.StartFrame(cl.wbuf), req)
	if err != nil {
		return WireResponse{}, err
	}
	cl.wbuf = frame
	if err := wire.SendFrame(cl.conn, frame); err != nil {
		return WireResponse{}, err
	}
	payload, err := wire.ReadFrameInto(cl.conn, cl.rbuf)
	if err != nil {
		return WireResponse{}, err
	}
	cl.rbuf = payload
	return parseResponse(payload, into)
}

// backoff waits out one capped exponential backoff step before retry
// number attempt. The duration is charged to the virtual clock (so it
// is visible in latency metrics and deterministic per workload) and
// slept in real time so the gateway's dispatcher actually drains. The
// jitter spreading concurrent clients apart is a hash of the request's
// identity, not a global RNG, keeping replays bit-identical.
func (cl *Client) backoff(model string, attempt int) {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", model, attempt, cl.retries.Load())
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	d += jitter
	if cl.clock != nil {
		cl.clock.Advance(d)
	}
	//securetf:allow nowallclock retry backoff sleeps real goroutines; the same d is charged to the virtual clock above
	time.Sleep(d)
}

// Close closes the client connection.
func (cl *Client) Close() error { return cl.conn.Close() }

// ArgmaxRows reduces a [rows, classes] Float32 tensor to the argmax
// class per row; an Int32 tensor (a model with a fused ArgMax head)
// passes through.
func ArgmaxRows(out *tf.Tensor) ([]int, error) {
	if out.DType() == tf.Int32 {
		classes := make([]int, out.NumElements())
		for i, v := range out.Ints() {
			classes[i] = int(v)
		}
		return classes, nil
	}
	shape := out.Shape()
	if len(shape) < 2 {
		return nil, fmt.Errorf("serving: output shape %v is not [rows, classes]", shape)
	}
	rows, cols := kernels.RowsCols(shape)
	classes := make([]int, rows)
	if err := kernels.ArgMaxRows(classes, out.Floats(), cols); err != nil {
		return nil, fmt.Errorf("serving: output shape %v: %w", shape, err)
	}
	return classes, nil
}
