// Package nondetflow exercises the interprocedural half of the
// nondeterminism rule. The harness loads it under a deterministic-core
// import path together with the nondetsrc helpers package, so the
// module call graph crosses a package boundary.
package nondetflow

import (
	"sort"

	"example.com/helpers"
)

// Stamp reaches the wall clock one call deep.
func Stamp() string {
	s := helpers.NowString() // want `call to .*NowString reaches time\.Now in the deterministic core \(call chain: .*NowString -> time\.Now\)`
	return s                 // want `return value depends on time\.Now via .*NowString -> time\.Now`
}

// DeepStamp reaches it two calls deep; the printed chain names every
// hop.
func DeepStamp() string {
	s := helpers.Deep() // want `reaches time\.Now .*Deep -> .*NowString -> time\.Now`
	return s            // want `return value depends on time\.Now`
}

// PickGroup returns a value tainted by map iteration order inside the
// helper. The helper performs no primitive call, so only the tainted
// return is reported.
func PickGroup(m map[string]int) string {
	k := helpers.FirstKey(m)
	return k // want `return value depends on map iteration order via .*FirstKey -> map iteration order`
}

// Sorted calls the helper that sorts before returning: clean.
func Sorted(m map[string]int) []string {
	return helpers.SortedKeys(m)
}

// CollectSorted is the local collect-then-sort idiom: the sort call
// sanitizes the collected slice.
func CollectSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Size depends only on the length of a tainted value, which is
// deterministic.
func Size(m map[string]int) int {
	k := helpers.FirstKey(m)
	return len(k)
}

// Overwritten kills the taint with a strong update before returning.
func Overwritten(m map[string]int) string {
	k := helpers.FirstKey(m)
	k = "fixed"
	return k
}

// OverwrittenOnOneBranch clears the taint on one path only; the other
// still returns the map-ordered key.
func OverwrittenOnOneBranch(m map[string]int, fixed bool) string {
	k := helpers.FirstKey(m)
	if fixed {
		k = "fixed"
	}
	return k // want `return value depends on map iteration order via .*FirstKey -> map iteration order`
}

// SortedOnOneBranch sorts the collected keys on one path only.
func SortedOnOneBranch(m map[string]int, tidy bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	if tidy {
		sort.Strings(out)
	}
	return out // want `return value depends on map iteration order; sort collected keys`
}

// Relayed carries the taint around the loop through two variables: b
// holds what a held one iteration earlier.
func Relayed(m map[string]int, n int) string {
	a, b := "", ""
	for i := 0; i < n; i++ {
		b = a
		a = helpers.FirstKey(m)
	}
	return b // want `return value depends on map iteration order via .*FirstKey -> map iteration order`
}

// JumpsOverOverwrite skips the overwrite with a goto, so the overwrite
// does not clear the taint.
func JumpsOverOverwrite(m map[string]int) string {
	k := helpers.FirstKey(m)
	if len(m) > 1 {
		goto done
	}
	k = "fixed"
done:
	return k // want `return value depends on map iteration order via .*FirstKey -> map iteration order`
}

// JumpsBack reaches the return again after the taint is assigned below
// it.
func JumpsBack(m map[string]int) string {
	k, n := "", 0
again:
	if n > 0 {
		return k // want `return value depends on map iteration order via .*FirstKey -> map iteration order`
	}
	n++
	k = helpers.FirstKey(m)
	goto again
}

// Logged documents a deliberate wall-clock read.
func Logged() string {
	//qpplint:ignore nondeterminism fixture: progress logging may read the wall clock
	return helpers.NowString()
}
