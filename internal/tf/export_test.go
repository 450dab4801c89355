package tf

// For the external tests, which run the repo's models: a package that
// imports this one.

// Dirty fills s's slabs with NaN, as dirty does.
func Dirty(s *Session) { dirty(s, nil) }

// SlabBytes is the bytes of s's two slabs.
func SlabBytes(s *Session) int64 { return 4 * int64(len(s.f32)+len(s.i32)) }

// PeakLiveBytes is the most bytes the buffers of the Run s made last
// hold live at one node, as sweep finds it.
func PeakLiveBytes(s *Session) int64 {
	_, most := sweep(buffers(s), len(s.plans[0].order))
	return 4 * int64(most[0]+most[1])
}
