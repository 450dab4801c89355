//go:build !race

package router

const raceEnabled = false
