//go:build race

package exec

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// what is put back at random: a warm run then starts from a cold
// workspace that often, and allocation figures are the race figures.
const raceEnabled = true
