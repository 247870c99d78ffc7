//go:build race

package machine

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// what is put back at random: a run then refills the run tables a pooled
// run would have reused, and allocation counts are the race counts.
const raceEnabled = true
