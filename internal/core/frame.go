package core

import (
	"io"

	"github.com/securetf/securetf/internal/wire"
)

// WriteFrame and ReadFrame forward to internal/wire, which every
// in-repo caller uses directly. They exist only because
// bench/suite/probes_substrate.go, frozen with the benchmark, imports
// them from here; they go when a [benchmark] issue repoints it.
func WriteFrame(w io.Writer, payload []byte) error { return wire.WriteFrame(w, payload) }

// ReadFrame: see WriteFrame.
func ReadFrame(r io.Reader) ([]byte, error) { return wire.ReadFrame(r) }
