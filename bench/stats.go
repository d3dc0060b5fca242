package main

import (
	"math"
	"sort"
)

// The benchmark's own arithmetic. It is deliberately independent of the
// program under test (serve.Percentile is only the oracle in
// stats_test.go), so a change to the product cannot move a metric's
// definition.

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of a
// sorted sample: the smallest element with at least ceil(q*n) elements
// at or below it.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[tailRank(n, q)-1]
}

// tailRank is the 1-based nearest-rank position of the q-quantile in a
// sample of n.
func tailRank(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailLadder lists the percentiles a tail metric may use, highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// minBeyond is how many samples must lie beyond a percentile's rank for
// the percentile to be reported: with fewer, the "tail" is a handful of
// individual ops and does not repeat.
const minBeyond = 10

// tailQuantile picks the highest percentile of tailLadder that has at
// least minBeyond samples beyond it in a sample of n (p99 needs 1 000
// ops, p95 200, p90 100), falling back to the median.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-tailRank(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// tail returns the tailQuantile of an unsorted sample, and which
// quantile that was.
func tail(sample []float64) (value, q float64) {
	s := sortedCopy(sample)
	q = tailQuantile(len(s))
	return percentile(s, q), q
}

// tailMean returns the mean of the sample at and beyond its
// tailQuantile — the percentile's own op and the minBeyond or more ops
// past it — and which quantile that was. It is the tail of a sample whose
// slow ops form a cluster no wider than the tail itself: the percentile
// alone then sits on the cluster's edge and jumps with the inputs, the
// mean of the ops beyond it does not.
func tailMean(sample []float64) (value, q float64) {
	s := sortedCopy(sample)
	if len(s) == 0 {
		return 0, 0.5
	}
	q = tailQuantile(len(s))
	return mean(s[tailRank(len(s), q)-1:]), q
}

// median returns the middle value of an unsorted sample (the mean of
// the two middle values when the count is even), 0 for an empty one.
func median(sample []float64) float64 {
	s := sortedCopy(sample)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// best returns the smallest value of a sample, 0 for an empty one. The
// passes of a run do identical work, so they differ only by what the
// machine added: on a shared box that is one-sided (a neighbour's burst
// or a slow memory regime only ever adds time) and lasts seconds, which
// moves the median of ten passes by 10 % between back-to-back runs of the
// same binary but the fastest pass by half that (README, "Why the best
// pass").
func best(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	m := sample[0]
	for _, v := range sample[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func sum(sample []float64) float64 {
	var t float64
	for _, v := range sample {
		t += v
	}
	return t
}

// mean is the arithmetic mean, 0 for an empty sample.
func mean(sample []float64) float64 {
	return ratio(sum(sample), float64(len(sample)))
}

func sortedCopy(sample []float64) []float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no share).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
