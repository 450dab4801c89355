//go:build race

package tflite

// raceEnabled reports a -race build: the detector allocates on the
// tested code's behalf, so the test that bounds a model load's
// allocation skips under it.
const raceEnabled = true
