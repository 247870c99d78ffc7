//go:build !race

package exec

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
