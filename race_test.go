//go:build race

package scalana_test

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = true
