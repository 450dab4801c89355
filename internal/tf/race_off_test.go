//go:build !race

package tf_test

const raceEnabled = false
