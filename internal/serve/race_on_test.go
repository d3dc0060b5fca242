//go:build race

package serve

// raceEnabled skips the allocation budgets: under the race detector
// sync.Pool (json.Marshal's encoder state) drops items at random.
const raceEnabled = true
