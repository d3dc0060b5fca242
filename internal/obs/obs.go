// Package obs is the execution observability layer: deterministic span
// tracing, a stdlib-only metrics registry, and profiling hooks, all driven
// by the virtual clock so that every observation is a pure function of
// (device profile, seed) and replays byte-identically at any worker count.
//
// Three pieces:
//
//   - Trace/Span: the executor opens one span per plan operator on the
//     virtual clock and brackets every iterator call with Enter/Exit. The
//     layer diffs vclock.Totals snapshots around each call, so each span
//     accumulates an exclusive (self) work breakdown — I/O seconds, CPU
//     seconds, decimal-arithmetic seconds, pages, buffer-cache hits, spill
//     pages — next to the inclusive timings the QPP models train on.
//     Traces export as an indented text tree (Tree) and as Chrome
//     trace_event JSON (WriteChrome) loadable in chrome://tracing.
//   - Registry/Histogram: named counters and log-bucketed histograms with
//     a deterministic merge. Registries are single-goroutine by contract:
//     the parallel layers give each query (or figure driver) its own
//     registry and merge them serially in workload/driver order, which is
//     what makes the aggregate byte-identical for every worker count.
//   - Profile: a sink for per-operator-class work attribution. A trace's
//     Attribute walks its spans and reports each span's exclusive
//     breakdown under the span's operator type, replacing ad-hoc
//     accounting in the experiment drivers.
//
// Determinism argument: spans read only the virtual clock, never the wall
// clock; all clock totals are monotone, so interval attribution is exact
// subtraction; span identity is the plan node (one span per operator, no
// matter how many rescans or sub-plan invocations touch it); and every
// exported rendering iterates spans in creation order and map keys in
// sorted order. Tracing never writes to the clock, so a traced run charges
// exactly the same virtual times as an untraced one.
package obs

import "qpp/internal/vclock"

// Breakdown attributes virtual device work to one owner (a span's
// exclusive segments, or an operator class in a Profile). Times are
// virtual seconds.
type Breakdown struct {
	Busy    float64 // virtual wall time (clock advance) attributed here
	IO      float64 // page-read and spill I/O seconds
	CPU     float64 // CPU seconds excluding the decimal-arithmetic share
	Numeric float64 // software-numeric (decimal) CPU seconds
	Hidden  float64 // CPU seconds hidden behind I/O overlap

	Pages      float64 // pages touched (cache hits included)
	CacheHits  float64 // buffer-cache hits
	SpillPages float64 // pages written+read by work_mem spills
}

// add accumulates a totals interval into the breakdown. The CPU field is
// the non-numeric remainder so IO/CPU/Numeric are disjoint attributions.
func (b *Breakdown) add(d vclock.Totals) {
	b.Busy += d.Now
	b.IO += d.IOTime
	b.CPU += d.CPUTime - d.NumericTime
	b.Numeric += d.NumericTime
	b.Hidden += d.HiddenCPU
	b.Pages += d.PagesRead
	b.CacheHits += d.CacheHits
	b.SpillPages += d.SpillPages
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Busy += o.Busy
	b.IO += o.IO
	b.CPU += o.CPU
	b.Numeric += o.Numeric
	b.Hidden += o.Hidden
	b.Pages += o.Pages
	b.CacheHits += o.CacheHits
	b.SpillPages += o.SpillPages
}

// Profile receives per-operator-class attributions of virtual device
// work; Trace.Attribute feeds one exclusive breakdown per span into it.
type Profile interface {
	Record(opClass string, self Breakdown)
}

// ClassProfile is the standard Profile: it sums breakdowns per operator
// class. Like Registry it is single-goroutine by contract; per-query
// profiles are merged serially in workload order.
type ClassProfile struct {
	classes map[string]*Breakdown
}

// NewClassProfile returns an empty profile.
func NewClassProfile() *ClassProfile {
	return &ClassProfile{classes: map[string]*Breakdown{}}
}

// Record implements Profile.
func (p *ClassProfile) Record(opClass string, self Breakdown) {
	b := p.classes[opClass]
	if b == nil {
		b = &Breakdown{}
		p.classes[opClass] = b
	}
	b.Add(self)
}

// RecordInto publishes the profile as registry counters named
// <prefix>.<class>.<field>, e.g. "profile.Seq Scan.io_s".
func (p *ClassProfile) RecordInto(reg *Registry, prefix string) {
	for _, class := range sortedKeys(p.classes) {
		b := p.classes[class]
		base := prefix + "." + class + "."
		reg.Add(base+"busy_s", b.Busy)
		reg.Add(base+"io_s", b.IO)
		reg.Add(base+"cpu_s", b.CPU)
		reg.Add(base+"numeric_s", b.Numeric)
		reg.Add(base+"hidden_s", b.Hidden)
		reg.Add(base+"pages", b.Pages)
		reg.Add(base+"cache_hits", b.CacheHits)
		reg.Add(base+"spill_pages", b.SpillPages)
	}
}
