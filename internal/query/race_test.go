//go:build race

package query

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = true
