//go:build !race

package dist

const raceEnabled = false
