//go:build !race

package federated

const raceEnabled = false
