//go:build race

package exec

// raceEnabled relaxes the allocation pins: under the race detector
// sync.Pool.Put drops items at random, so a Run may start on a fresh arena
// and allocate chunks a warmed one would not.
const raceEnabled = true
