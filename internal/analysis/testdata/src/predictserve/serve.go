// Package predictserve stands in for the serving layer: its predict
// handlers are the roots of hotalloc's predict-path reachability.
package predictserve

import qpp "qpp/internal/qpp"

func handlePredict() float64 { return qpp.Predict([]float64{1, 2}) }

func handleBatch() string { return qpp.Signature(3) }

// handleExplain is not a predict handler: what it alone reaches is not
// checked.
func handleExplain() string { return qpp.Explain() }
