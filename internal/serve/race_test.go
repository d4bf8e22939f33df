//go:build race

package serve

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation counts are not the program's.
const raceEnabled = true
