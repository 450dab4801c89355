//go:build race

package kernels

// raceEnabled reports a -race build: the detector makes sync.Pool drop
// items at random, so the test that counts allocations skips under it.
const raceEnabled = true
