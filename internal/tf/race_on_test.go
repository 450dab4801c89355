//go:build race

package tf_test

// raceEnabled reports a -race build: the detector allocates on the
// tested code's behalf and makes sync.Pool drop items at random, so the
// test that bounds a Run's allocation skips under it.
const raceEnabled = true
