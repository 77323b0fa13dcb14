//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of the items put into it.
const raceEnabled = true
