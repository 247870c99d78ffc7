//go:build race

package exec

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
