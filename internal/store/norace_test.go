//go:build !race

package store

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = false
