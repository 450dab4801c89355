package wire

import "sync"

// Frames is a free list of frame buffers, for the connections of one
// owner: a connection borrows a buffer for one frame and gives it back
// once the frame is written, or read and consumed, so an idle connection
// holds none and the owner keeps as many buffers as it has frames in
// flight at once, not as many as it has connections. The zero value is
// an empty list, and a Frames may be shared by goroutines.
//
// A buffer is given back only with bytes its owner trusts: one whose
// frame failed — a read cut short, a frame that did not decode — is
// dropped, so a hostile peer's frame does not stay in the list. An owner
// that knows how large a well-formed frame of its protocol can be sets
// Max, and a frame that decoded but is larger is dropped too.
type Frames struct {
	// Max, when positive, is the capacity of the largest buffer the
	// list keeps: Put drops a larger one. Set it before the list is
	// shared.
	Max int

	mu   sync.Mutex
	free [][]byte
}

// Get returns a buffer of length n: the smallest free buffer that holds
// n bytes, taken off the list, or a new one.
func (f *Frames) Get(n int) []byte {
	f.mu.Lock()
	best := -1
	for i, b := range f.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(f.free[best])) {
			best = i
		}
	}
	if best < 0 {
		f.mu.Unlock()
		return make([]byte, n)
	}
	b := f.free[best]
	last := len(f.free) - 1
	f.free[best], f.free[last] = f.free[last], nil
	f.free = f.free[:last]
	f.mu.Unlock()
	return b[:n]
}

// Put gives back a buffer Get returned (or a slice of one); nothing else
// may refer to its bytes.
func (f *Frames) Put(b []byte) {
	if f.Max > 0 && cap(b) > f.Max {
		return
	}
	f.mu.Lock()
	f.free = append(f.free, b[:0])
	f.mu.Unlock()
}

// Bytes is the capacity of the free buffers, in bytes.
func (f *Frames) Bytes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, b := range f.free {
		n += cap(b)
	}
	return n
}
