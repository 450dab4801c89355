//go:build race

package dist

// raceEnabled reports a -race build: the detector allocates on the
// tested code's behalf and makes sync.Pool drop items at random, so
// tests that count allocations skip under it.
const raceEnabled = true
