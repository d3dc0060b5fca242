package obs

import (
	"math"
	"sync/atomic"
)

// Concurrent metric sinks for the serving path. The single-goroutine
// Registry/Histogram pair is the right tool for deterministic offline
// aggregation, but a prediction server records metrics from many
// request goroutines at once and its hot path must not take locks.
// CCounter and CHist are their lock-free counterparts: every update is
// a handful of atomic operations, and a point-in-time Snapshot converts
// back to the plain Histogram/Registry types for rendering, so the
// /metrics dump format stays identical to the offline one.
//
// Consistency contract: individual fields (count, sum, each bucket) are
// updated atomically, but a Snapshot taken while writers are active may
// observe them at slightly different instants. Snapshot therefore
// derives the total count from the bucket counts it actually read,
// keeping the rendered histogram internally consistent (count always
// equals the sum of bucket counts). Quiesce writers before snapshotting
// when exact figures matter, as tests do.

// CCounter is a lock-free integer counter.
type CCounter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *CCounter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *CCounter) Load() int64 { return c.v.Load() }

// cHistMinExp/cHistMaxExp bound the Frexp exponents bucketOf can return
// for finite positive float64 values: the smallest denormal 2^-1074 has
// exponent -1073, the largest finite value has exponent 1024. Values
// outside (zero/negative, +Inf, NaN) land in the dedicated slots.
const (
	cHistMinExp  = -1073
	cHistMaxExp  = 1024
	cHistBuckets = cHistMaxExp - cHistMinExp + 1
)

// CHist is a lock-free log2-bucketed histogram with the exact bucket
// layout of Histogram. The bucket array spans every exponent a finite
// positive float64 can produce, so CHist.Snapshot and a serially-fed
// Histogram agree bucket for bucket.
type CHist struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits, +Inf until first observation
	maxBits atomic.Uint64 // float64 bits, -Inf until first observation
	zero    atomic.Int64  // v <= 0 (including -Inf)
	inf     atomic.Int64  // v == +Inf
	nan     atomic.Int64
	buckets [cHistBuckets]atomic.Int64
}

// NewCHist returns an empty concurrent histogram.
func NewCHist() *CHist {
	h := &CHist{}
	h.Reset()
	return h
}

// Reset clears the histogram. Not safe to call concurrently with
// Observe.
func (h *CHist) Reset() {
	h.count.Store(0)
	h.sumBits.Store(0) // Float64bits(0) == 0
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	h.zero.Store(0)
	h.inf.Store(0)
	h.nan.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Observe records one value. Safe for concurrent use. The float sum is
// CAS-accumulated, so under contention its rounding depends on the
// interleaving — concurrent sums are reproducible only in distribution,
// not bit for bit. NaN observations count and bucket but never become
// min/max (a comparison against NaN is always false).
func (h *CHist) Observe(v float64) {
	h.count.Add(1)
	for {
		ob := h.sumBits.Load()
		nb := math.Float64bits(math.Float64frombits(ob) + v)
		if h.sumBits.CompareAndSwap(ob, nb) {
			break
		}
	}
	for {
		ob := h.minBits.Load()
		if !(v < math.Float64frombits(ob)) {
			break
		}
		if h.minBits.CompareAndSwap(ob, math.Float64bits(v)) {
			break
		}
	}
	for {
		ob := h.maxBits.Load()
		if !(v > math.Float64frombits(ob)) {
			break
		}
		if h.maxBits.CompareAndSwap(ob, math.Float64bits(v)) {
			break
		}
	}
	switch b := bucketOf(v); b {
	case bucketZero:
		h.zero.Add(1)
	case bucketInf:
		h.inf.Add(1)
	case bucketNaN:
		h.nan.Add(1)
	default:
		h.buckets[b-cHistMinExp].Add(1)
	}
}

// Snapshot converts the current state into a plain Histogram. The
// returned histogram's count is the sum of the bucket counts read, so
// it is always internally consistent even if writers race the scrape.
func (h *CHist) Snapshot() *Histogram {
	out := NewHistogram()
	var n int64
	add := func(idx int, c int64) {
		if c > 0 {
			out.buckets[idx] += c
			n += c
		}
	}
	add(bucketZero, h.zero.Load())
	add(bucketInf, h.inf.Load())
	add(bucketNaN, h.nan.Load())
	for i := range h.buckets {
		add(cHistMinExp+i, h.buckets[i].Load())
	}
	if n == 0 {
		return out
	}
	out.count = n
	out.sum = math.Float64frombits(h.sumBits.Load())
	mn := math.Float64frombits(h.minBits.Load())
	mx := math.Float64frombits(h.maxBits.Load())
	// All-NaN streams never update min/max; fall back to the bucket
	// bounds rather than reporting the ±Inf sentinels.
	if math.IsInf(mn, 1) && math.IsInf(mx, -1) {
		mn, mx = math.NaN(), math.NaN()
	}
	out.min = mn
	out.max = mx
	return out
}

// MergeHist merges a pre-built histogram into the named histogram of
// the registry, creating it on first use. This is how concurrent CHist
// snapshots enter a Registry for rendering.
func (r *Registry) MergeHist(name string, h *Histogram) {
	dst := r.hists[name]
	if dst == nil {
		dst = NewHistogram()
		r.hists[name] = dst
	}
	dst.Merge(h)
}

// SetCounter overwrites a counter with an absolute value — the bridge
// for scrape-time gauges (snapshot model counts, uptime ticks) that are
// not accumulated through Add.
func (r *Registry) SetCounter(name string, v float64) { r.counters[name] = v }
