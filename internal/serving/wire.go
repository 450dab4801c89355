// Wire protocol of the serving gateway.
//
// The §4.2 classifier protocol carried bare length-prefixed tensors; the
// gateway extends each request with a model-name/version header and each
// response with an explicit status code, so one endpoint can serve many
// models and clients can distinguish overload (back off and retry) from
// hard failures. Frames remain length-prefixed so the protocol runs
// unchanged over plain TCP and over the network shield's TLS.
//
// The codec is exported because the router tier (internal/serving/router)
// speaks the same protocol on both sides: it decodes client requests,
// forwards them to backend gateways and relays the responses. Responses
// carry the serving node's virtual service time, so a multi-hop caller
// can attribute per-step enclave cost without sharing a clock.
package serving

import (
	"fmt"
	"io"
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

// WriteRequest encodes and sends a request frame.
func WriteRequest(w io.Writer, req WireRequest) error {
	if len(req.Model) > maxModelName || (len(req.Model) == 0 && !req.ListModels) {
		return fmt.Errorf("serving: model name of %d bytes", len(req.Model))
	}
	if req.Version < 0 {
		return fmt.Errorf("serving: negative model version %d", req.Version)
	}
	var flags byte
	size := 1 + 1 + 2 + len(req.Model) + 4
	if req.Argmax {
		flags |= flagArgmax
	}
	if req.ListModels {
		flags |= flagModels
	} else {
		size += tf.EncodedTensorLen(req.Input)
	}
	p := wire.Writer{Buf: make([]byte, 0, size)}
	p.U8(protoVersion)
	p.U8(flags)
	p.Str16(req.Model)
	p.U32(uint32(req.Version))
	if !req.ListModels {
		p.Buf = tf.AppendTensor(p.Buf, req.Input)
	}
	return wire.WriteFrame(w, p.Buf)
}

// ReadRequest reads and decodes a request frame. A request that decodes
// is in the form WriteRequest sends: no unknown flag, and nothing after
// a ListModels header.
func ReadRequest(r io.Reader) (WireRequest, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return WireRequest{}, err
	}
	p := wire.NewReader(payload)
	version, flags := p.U8(), p.U8()
	req := WireRequest{
		Model:      p.Str16(),
		Version:    int(p.U32()),
		Argmax:     flags&flagArgmax != 0,
		ListModels: flags&flagModels != 0,
	}
	if p.Err() != nil || version != protoVersion || flags&^(flagArgmax|flagModels) != 0 ||
		(req.Model == "" && !req.ListModels) || len(req.Model) > maxModelName {
		return WireRequest{}, fmt.Errorf("serving: bad request header")
	}
	if req.ListModels {
		if err := p.Done(); err != nil {
			return WireRequest{}, fmt.Errorf("serving: list request: %w", err)
		}
		return req, nil
	}
	if req.Input, err = tf.DecodeTensor(p.Next(p.Remaining())); err != nil {
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

// WriteResponse encodes and sends a response frame.
func WriteResponse(w io.Writer, resp WireResponse) error {
	body := len(resp.Message)
	if resp.Status == StatusOK {
		body = tf.EncodedTensorLen(resp.Output)
	}
	p := wire.Writer{Buf: make([]byte, 0, 1+1+4+8+body)}
	p.U8(protoVersion)
	p.U8(uint8(resp.Status))
	p.U32(uint32(resp.Version))
	p.U64(uint64(resp.ServiceVtime))
	if resp.Status == StatusOK {
		p.Buf = tf.AppendTensor(p.Buf, resp.Output)
	} else {
		p.Buf = append(p.Buf, resp.Message...)
	}
	return wire.WriteFrame(w, p.Buf)
}

// ReadResponse reads and decodes a response frame.
func ReadResponse(r io.Reader) (WireResponse, error) {
	payload, err := wire.ReadFrame(r)
	if err != nil {
		return WireResponse{}, err
	}
	p := wire.NewReader(payload)
	version := p.U8()
	resp := WireResponse{
		Status:       Status(p.U8()),
		Version:      int(p.U32()),
		ServiceVtime: time.Duration(p.U64()),
	}
	if p.Err() != nil || version != protoVersion {
		return WireResponse{}, fmt.Errorf("serving: bad response header")
	}
	body := p.Next(p.Remaining())
	if resp.Status != StatusOK {
		resp.Message = string(body)
		return resp, nil
	}
	if resp.Output, err = tf.DecodeTensor(body); err != nil {
		return WireResponse{}, fmt.Errorf("serving: decode response tensor: %w", err)
	}
	return resp, nil
}
