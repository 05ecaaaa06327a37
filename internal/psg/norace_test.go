//go:build !race

package psg

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = false
