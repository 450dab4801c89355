//go:build !race

package tflite

const raceEnabled = false
