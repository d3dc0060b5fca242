package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Histogram bucket indexes for values that have no finite positive
// base-2 exponent. Regular buckets use the Frexp exponent e, covering
// [2^(e-1), 2^e); float64 exponents stay within ±1100, far from these.
const (
	bucketZero = -1 << 20 // v <= 0 (including -Inf)
	bucketInf  = 1<<20 - 1
	bucketNaN  = 1 << 20
)

// bucketOf maps a value to its log-2 bucket index.
func bucketOf(v float64) int {
	switch {
	case math.IsNaN(v):
		return bucketNaN
	case math.IsInf(v, 1):
		return bucketInf
	case v <= 0:
		return bucketZero
	default:
		_, e := math.Frexp(v)
		return e
	}
}

// BucketBounds returns the half-open range [lo, hi) a bucket covers.
// Special buckets return (0,0), (+Inf,+Inf) and (NaN,NaN).
func BucketBounds(index int) (lo, hi float64) {
	switch index {
	case bucketZero:
		return 0, 0
	case bucketInf:
		return math.Inf(1), math.Inf(1)
	case bucketNaN:
		return math.NaN(), math.NaN()
	default:
		return math.Ldexp(1, index-1), math.Ldexp(1, index)
	}
}

// bucketLabel renders a bucket index for dumps.
func bucketLabel(index int) string {
	switch index {
	case bucketZero:
		return "<=0"
	case bucketInf:
		return "+inf"
	case bucketNaN:
		return "nan"
	default:
		return fmt.Sprintf("2^%d", index)
	}
}

// Histogram is a log-bucketed (powers of two) value distribution with
// exact integer bucket counts, so merging histograms is associative and
// commutative on counts no matter the merge order.
type Histogram struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets map[int]int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: map[int]int64{}}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Merge accumulates another histogram; bucket keys are visited in sorted
// order so float side effects are reproducible for a fixed merge order.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	idx := make([]int, 0, len(o.buckets))
	for b := range o.buckets {
		idx = append(idx, b)
	}
	sort.Ints(idx)
	for _, b := range idx {
		h.buckets[b] += o.buckets[b]
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Bucket is one (index, count) pair of a histogram dump.
type Bucket struct {
	Index int
	Count int64
}

// Buckets returns the non-empty buckets sorted by index.
func (h *Histogram) Buckets() []Bucket {
	idx := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		idx = append(idx, b)
	}
	sort.Ints(idx)
	out := make([]Bucket, len(idx))
	for i, b := range idx {
		out[i] = Bucket{Index: b, Count: h.buckets[b]}
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from
// the bucket boundaries: the upper edge of the bucket containing the
// q-th observation. Deterministic and conservative.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for _, b := range h.Buckets() {
		seen += b.Count
		if seen >= target {
			_, hi := BucketBounds(b.Index)
			return hi
		}
	}
	return h.max
}

// Registry is a named collection of counters and histograms.
//
// Concurrency contract: a Registry is single-goroutine. Parallel code
// gives every worker-indexed unit (query, fold, figure driver) its own
// registry and merges them serially in index order afterwards; that fixed
// merge order is what makes aggregated float sums byte-identical across
// worker counts.
type Registry struct {
	counters map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]float64{}, hists: map[string]*Histogram{}}
}

// Add increments a counter by v.
func (r *Registry) Add(name string, v float64) { r.counters[name] += v }

// Inc increments a counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Observe records a value into the named histogram, creating it on first
// use.
func (r *Registry) Observe(name string, v float64) {
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	h.Observe(v)
}

// CounterNames lists counters in sorted order.
func (r *Registry) CounterNames() []string { return sortedKeys(r.counters) }

// HistNames lists histograms in sorted order.
func (r *Registry) HistNames() []string { return sortedKeys(r.hists) }

// Merge accumulates another registry into r.
func (r *Registry) Merge(o *Registry) { r.MergePrefixed(o, "") }

// MergePrefixed accumulates another registry into r with every name
// prefixed, e.g. MergePrefixed(m, "large."). Names are visited in sorted
// order so repeated merges are deterministic.
func (r *Registry) MergePrefixed(o *Registry, prefix string) {
	for _, name := range sortedKeys(o.counters) {
		r.Add(prefix+name, o.counters[name])
	}
	for _, name := range sortedKeys(o.hists) {
		h := r.hists[prefix+name]
		if h == nil {
			h = NewHistogram()
			r.hists[prefix+name] = h
		}
		h.Merge(o.hists[name])
	}
}

// WriteTo dumps the registry as sorted text, one line per metric:
//
//	counter <name> <value>
//	hist <name> count=<n> sum=<s> min=<m> max=<M> p50<=<q> buckets=[...]
//
// The rendering is byte-deterministic: names sort lexically, buckets sort
// by index, floats print with %g.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	for _, name := range r.CounterNames() {
		fmt.Fprintf(&sb, "counter %s %g\n", name, r.counters[name])
	}
	for _, name := range r.HistNames() {
		h := r.hists[name]
		fmt.Fprintf(&sb, "hist %s count=%d sum=%g min=%g max=%g p50<=%g buckets=[",
			name, h.Count(), h.Sum(), h.Min(), h.Max(), h.Quantile(0.5))
		for i, b := range h.Buckets() {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%s:%d", bucketLabel(b.Index), b.Count)
		}
		sb.WriteString("]\n")
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the registry dump as a string.
func (r *Registry) String() string {
	var sb strings.Builder
	r.WriteTo(&sb) // strings.Builder writes cannot fail
	return sb.String()
}

// sortedKeys returns a map's keys in sorted order — the repo's
// collect-then-sort idiom for deterministic map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
