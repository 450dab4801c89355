// Wire protocol of the serving gateway.
//
// The §4.2 classifier protocol carried bare length-prefixed tensors; the
// gateway extends each request with a model-name/version header and each
// response with an explicit status code, so one endpoint can serve many
// models and clients can distinguish overload (back off and retry) from
// hard failures. Frames remain length-prefixed so the protocol runs
// unchanged over plain TCP and over the network shield's TLS.
//
// The server loop (ServeRounds) and the Client are exported because the
// router tier (internal/serving/router) speaks the same protocol on both
// sides: it serves client requests, forwards them to backend gateways
// and relays the responses. Responses carry the serving node's virtual
// service time, so a multi-hop caller can attribute per-step enclave
// cost without sharing a clock.
package serving

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/wire"
)

// Status is the response status code on the wire.
type Status uint8

// Response statuses.
const (
	// StatusOK carries a result tensor.
	StatusOK Status = 0
	// StatusOverloaded signals admission-control rejection: the model's
	// request queue is full. Clients should back off and retry.
	StatusOverloaded Status = 1
	// StatusNotFound signals an unknown model name or version.
	StatusNotFound Status = 2
	// StatusBadRequest signals a malformed or incompatible input tensor.
	StatusBadRequest Status = 3
	// StatusShuttingDown signals the gateway is draining.
	StatusShuttingDown Status = 4
	// StatusInternal signals an interpreter failure.
	StatusInternal Status = 5
	// StatusModels answers a ListModels request: the response Message
	// carries the sorted, comma-joined registered model names.
	StatusModels Status = 6
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusOverloaded:
		return "OVERLOADED"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusShuttingDown:
		return "SHUTTING_DOWN"
	case StatusInternal:
		return "INTERNAL"
	case StatusModels:
		return "MODELS"
	default:
		return fmt.Sprintf("STATUS_%d", uint8(s))
	}
}

const (
	// protoVersion is the first byte of every request and response
	// payload, so protocol evolution stays detectable.
	protoVersion = 2
	// maxModelName bounds the model-name header field.
	maxModelName = 1 << 10
)

// DefaultModelName is the registry name single-model deployments publish
// under; a client request with an empty model name resolves to it.
const DefaultModelName = "default"

const (
	// flagArgmax asks the server to reduce the output to the argmax class
	// per row before responding — the classic classifier contract: only
	// the label leaves the enclave, and the response is 4 bytes/row
	// instead of a full probability vector.
	flagArgmax = 1 << 0
	// flagModels marks a control request asking for the registered model
	// names instead of an inference; it carries no tensor and may leave
	// the model name empty.
	flagModels = 1 << 1
)

// WireRequest is one decoded inference request.
type WireRequest struct {
	Model   string
	Version int // 0 requests the current serving version
	Argmax  bool
	// ListModels asks for the registered model names instead of an
	// inference; Input is nil on such requests.
	ListModels bool
	Input      *tf.Tensor
}

// checkVersion refuses a model version the wire's u32 cannot carry as an
// int on every target: a version of 1<<32 would arrive as 0, the
// serving version.
func checkVersion(v int) error {
	if v < 0 || v > math.MaxInt32 {
		return fmt.Errorf("serving: model version %d outside [0, %d]", v, math.MaxInt32)
	}
	return nil
}

// WriteRequest encodes and sends a request frame from a buffer of its
// own.
func WriteRequest(w io.Writer, req WireRequest) error {
	frame, err := appendRequest(wire.StartFrame(nil), req)
	if err != nil {
		return err
	}
	return wire.SendFrame(w, frame)
}

// appendRequest appends a request's frame payload to dst.
func appendRequest(dst []byte, req WireRequest) ([]byte, error) {
	if len(req.Model) > maxModelName || (len(req.Model) == 0 && !req.ListModels) {
		return nil, fmt.Errorf("serving: model name of %d bytes", len(req.Model))
	}
	if err := checkVersion(req.Version); err != nil {
		return nil, err
	}
	var flags byte
	size := 1 + 1 + 2 + len(req.Model) + 4
	if req.Argmax {
		flags |= flagArgmax
	}
	if req.ListModels {
		flags |= flagModels
	} else if req.Input == nil {
		return nil, fmt.Errorf("serving: request for model %q has no input", req.Model)
	} else {
		size += tf.EncodedTensorLen(req.Input)
	}
	p := wire.Writer{Buf: slices.Grow(dst, size)}
	p.U8(protoVersion)
	p.U8(flags)
	p.Str16(req.Model)
	p.U32(uint32(req.Version))
	if !req.ListModels {
		p.Buf = tf.AppendTensor(p.Buf, req.Input)
	}
	return p.Buf, nil
}

// ReadRequest reads and decodes a request frame into storage of its own.
// A request that decodes is in the form WriteRequest sends: no unknown
// flag, and nothing after a ListModels header.
func ReadRequest(r io.Reader) (WireRequest, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return WireRequest{}, err
	}
	return parseRequest(payload, nil)
}

// parseRequest decodes a request payload. Its input tensor is decoded
// into into when that has the request's dtype and shape, and into a new
// tensor otherwise; nothing in the result aliases payload.
func parseRequest(payload []byte, into *tf.Tensor) (WireRequest, error) {
	p := wire.NewReader(payload)
	version, flags := p.U8(), p.U8()
	req := WireRequest{
		Model:      p.Str16(),
		Version:    int(p.U32()),
		Argmax:     flags&flagArgmax != 0,
		ListModels: flags&flagModels != 0,
	}
	if p.Err() != nil || version != protoVersion || flags&^(flagArgmax|flagModels) != 0 ||
		(req.Model == "" && !req.ListModels) || len(req.Model) > maxModelName || checkVersion(req.Version) != nil {
		return WireRequest{}, fmt.Errorf("serving: bad request header")
	}
	if req.ListModels {
		if err := p.Done(); err != nil {
			return WireRequest{}, fmt.Errorf("serving: list request: %w", err)
		}
		return req, nil
	}
	body := p.Next(p.Remaining())
	if into != nil && tf.DecodeTensorInto(into, body) == nil {
		req.Input = into
		return req, nil
	}
	var err error
	if req.Input, err = tf.DecodeTensor(body); err != nil {
		return WireRequest{}, fmt.Errorf("serving: decode request tensor: %w", err)
	}
	return req, nil
}

// WireResponse is one decoded inference response.
type WireResponse struct {
	Status  Status
	Version int // the model version that served an OK response
	// ServiceVtime is the virtual time the serving node charged this
	// request (enqueue → response ready on the node's own clock). A
	// router summing these across graph steps attributes per-step enclave
	// cost without the nodes sharing a clock.
	ServiceVtime time.Duration
	Output       *tf.Tensor
	Message      string
}

// WriteResponse encodes and sends a response frame from a buffer of its
// own.
func WriteResponse(w io.Writer, resp WireResponse) error {
	frame, err := appendResponse(wire.StartFrame(nil), resp)
	if err != nil {
		return err
	}
	return wire.SendFrame(w, frame)
}

// appendResponse appends a response's frame payload to dst.
func appendResponse(dst []byte, resp WireResponse) ([]byte, error) {
	if err := checkVersion(resp.Version); err != nil {
		return nil, err
	}
	body := len(resp.Message)
	if resp.Status == StatusOK {
		if resp.Output == nil {
			return nil, fmt.Errorf("serving: OK response has no output")
		}
		body = tf.EncodedTensorLen(resp.Output)
	}
	p := wire.Writer{Buf: slices.Grow(dst, 1+1+4+8+body)}
	p.U8(protoVersion)
	p.U8(uint8(resp.Status))
	p.U32(uint32(resp.Version))
	p.U64(uint64(resp.ServiceVtime))
	if resp.Status == StatusOK {
		p.Buf = tf.AppendTensor(p.Buf, resp.Output)
	} else {
		p.Buf = append(p.Buf, resp.Message...)
	}
	return p.Buf, nil
}

// ReadResponse reads and decodes a response frame.
func ReadResponse(r io.Reader) (WireResponse, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return WireResponse{}, err
	}
	return parseResponse(payload, nil)
}

// parseResponse decodes a response payload. An OK response's tensor is
// decoded into into when that has the tensor's dtype and shape, and
// into a new tensor otherwise; nothing in the result aliases payload.
func parseResponse(payload []byte, into *tf.Tensor) (WireResponse, error) {
	p := wire.NewReader(payload)
	version := p.U8()
	resp := WireResponse{
		Status:       Status(p.U8()),
		Version:      int(p.U32()),
		ServiceVtime: time.Duration(p.U64()),
	}
	if p.Err() != nil || version != protoVersion || checkVersion(resp.Version) != nil {
		return WireResponse{}, fmt.Errorf("serving: bad response header")
	}
	body := p.Next(p.Remaining())
	if resp.Status != StatusOK {
		resp.Message = string(body)
		return resp, nil
	}
	if into != nil && tf.DecodeTensorInto(into, body) == nil {
		resp.Output = into
		return resp, nil
	}
	var err error
	if resp.Output, err = tf.DecodeTensor(body); err != nil {
		return WireResponse{}, fmt.Errorf("serving: decode response tensor: %w", err)
	}
	return resp, nil
}

// ServeRounds serves one connection's request/response rounds, one at a
// time, until a read, a decode or a write fails: it reads a request,
// hands it to handle and writes what handle returns before it reads the
// next. It is the server side of the protocol under both the gateway
// and the router. The frames it reads and writes and the request tensor
// it decodes into are the connection's, and a request's Input is the
// connection's until handle returns. A response's Output need hold
// still only until it is written, so a handler answers from tensors it
// reuses every round: the gateway from its connection's reply tensor,
// the router from its connection's stage tensors (the package comment
// has the rule).
func ServeRounds(conn io.ReadWriter, handle func(WireRequest) WireResponse) {
	var (
		rbuf, wbuf []byte
		input      *tf.Tensor
	)
	for {
		payload, err := wire.ReadFrameInto(conn, rbuf)
		if err != nil {
			return
		}
		rbuf = payload
		req, err := parseRequest(payload, input)
		if err != nil {
			return
		}
		if req.Input != nil {
			input = req.Input
		}
		if wbuf, err = appendResponse(wire.StartFrame(wbuf), handle(req)); err != nil {
			return
		}
		if err := wire.SendFrame(conn, wbuf); err != nil {
			return
		}
	}
}
