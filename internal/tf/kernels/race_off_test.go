//go:build !race

package kernels

const raceEnabled = false
