// Package predictlib exercises hotalloc's predict-path check (it is
// loaded as a predict-path package): a function the predict handlers
// reach may not build a map or write to a strings.Builder.
package predictlib

import "strings"

// slots is built once, at package initialisation: not a finding.
var slots = map[string]int{"a": 0, "b": 1}

func Predict(row []float64) float64 {
	seen := map[string]bool{}   // want `Predict builds a map literal on every /predict`
	idx := make(map[int]int, 2) // want `Predict makes a map on every /predict`
	seen["x"] = true
	idx[0] = slots["a"]
	return row[idx[0]] + weight(row)
}

// weight is reached through Predict: its closure's map counts too.
func weight(row []float64) float64 {
	sum := func() float64 {
		m := make(map[float64]bool) // want `weight makes a map on every /predict`
		m[row[0]] = true
		return float64(len(m))
	}
	return sum()
}

func Signature(n int) string {
	var b strings.Builder
	b.Grow(8)                           // growing is not a write
	b.WriteString("op")                 // want `Signature writes to a strings.Builder on every /predict`
	b.WriteByte('(')                    // want `Signature writes to a strings.Builder on every /predict`
	buf := append([]byte(nil), "op"...) // a reused []byte is the sanctioned rendering
	_ = buf
	return b.String()
}

// Explain is reached only from a handler that is not a predict handler.
func Explain() string {
	var b strings.Builder
	b.WriteString(strings.Repeat("-", 3))
	_ = map[string]int{}
	return b.String()
}

// train is reached from no handler at all.
func train() map[string]int { return make(map[string]int) }
