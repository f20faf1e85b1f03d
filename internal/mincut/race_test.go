//go:build race

package mincut

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of the values put into it.
const raceEnabled = true
