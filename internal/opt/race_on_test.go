//go:build race

package opt

// raceEnabled lets the differential test shrink its matrix under the race
// detector, which slows planning several-fold; what it checks is
// scale-independent.
const raceEnabled = true
