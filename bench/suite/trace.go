package suite

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"github.com/securetf/securetf/internal/vtime"
)

// A Span is one timed call into a layer, recorded from the benchmark's
// own files (in-program tracing is a later change). Wall times are
// nanoseconds since the recorder started; virtual times are read off the
// clock of the container that owns the call and are -1 when the call has
// no clock (host-side work such as building a model).
type Span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"` // 0 for a root
	Op        int64  `json:"op"`     // measured-op index, -1 outside the measured phase
	Layer     string `json:"layer"`
	Name      string `json:"name"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the tracing-off mode: every method is a no-op, so the untraced run
// pays one nil check per call site.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// open is a started, not yet ended span.
type open struct {
	r     *Recorder
	span  Span
	clock *vtime.Clock
}

// Start opens a span under parent (0 for a root). clock may be nil.
func (r *Recorder) Start(parent, op int64, layer, name string, clock *vtime.Clock) open {
	if r == nil {
		return open{}
	}
	s := Span{Parent: parent, Op: op, Layer: layer, Name: name, VirtStart: -1, VirtEnd: -1}
	if clock != nil {
		s.VirtStart = int64(clock.Now())
	}
	r.mu.Lock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s) // reserves the id; End overwrites the slot
	r.mu.Unlock()
	s.WallStart = int64(time.Since(r.t0))
	return open{r: r, span: s, clock: clock}
}

// ID is the span id children name as their parent (0 when tracing is off).
func (o open) ID() int64 { return o.span.ID }

// End closes the span.
func (o open) End() {
	if o.r == nil {
		return
	}
	o.span.WallEnd = int64(time.Since(o.r.t0))
	if o.clock != nil {
		o.span.VirtEnd = int64(o.clock.Now())
	}
	o.r.mu.Lock()
	o.r.spans[o.span.ID-1] = o.span
	o.r.mu.Unlock()
}

// Do runs fn inside a span.
func (r *Recorder) Do(parent int64, layer, name string, clock *vtime.Clock, fn func() error) error {
	sp := r.Start(parent, -1, layer, name, clock)
	err := fn()
	sp.End()
	return err
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
