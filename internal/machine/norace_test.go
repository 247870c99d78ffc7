//go:build !race

package machine

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
