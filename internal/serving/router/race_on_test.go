//go:build race

package router

// raceEnabled reports a -race build: the detector allocates on the
// tested code's behalf, so the test that bounds a warm round's
// allocation skips under it.
const raceEnabled = true
