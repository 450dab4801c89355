//go:build race

package fsshield

// raceEnabled reports a -race build: the detector allocates on the
// tested code's behalf, so the tests that bound a write's and a read's
// allocation skip under it.
const raceEnabled = true
