//go:build race

package fsshield

// raceEnabled reports a -race build: the detector allocates on the
// tested code's behalf, so the test that bounds a write's allocation
// skips under it.
const raceEnabled = true
