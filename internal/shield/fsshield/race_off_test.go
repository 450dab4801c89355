//go:build !race

package fsshield

const raceEnabled = false
