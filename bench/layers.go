package main

import "fmt"

// statKind says how a per-layer metric is read off the spans of one
// name.
type statKind int

const (
	statMedian statKind = iota // median span duration
	statP99                    // 99th percentile of span durations
	statP95                    // 95th percentile of span durations
)

// layerDef declares one per-layer metric. A metric whose layer does no
// work in a workload's traced run reads 0 there: that is the finding
// ("this layer is not on this workload's path"), not a gap.
type layerDef struct {
	metricDef
	span  string   // span name the value is read from ("": set by the workload itself)
	stat  statKind // how, when span is set
	scale float64  // seconds → unit
}

const (
	toS  = 1
	toMs = 1e3
	toUs = 1e6
)

func fromSpan(name, unit, span string, stat statKind, scale float64) layerDef {
	return layerDef{metricDef{name, unit, "lower"}, span, stat, scale}
}

func direct(name, unit, better string) layerDef {
	return layerDef{metricDef: metricDef{name, unit, better}}
}

// perLayer is every per-layer metric, in the README's layer order. Every
// traced run prints all of them.
var perLayer = []layerDef{
	// tpch, catalog+sketch: set-up on all four workloads.
	fromSpan("tpch.generate_s", "s", "tpch.generate", statMedian, toS),
	fromSpan("tpch.genworkload_ms", "ms", "tpch.genworkload", statMedian, toMs),
	fromSpan("catalog.analyze_sketch_s", "s", "catalog.analyze_sketch", statMedian, toS),
	direct("catalog.analyze_share", "ratio", "lower"),
	// sql, opt.
	fromSpan("sql.parse_us", "us", "sql.parse", statMedian, toUs),
	fromSpan("sql.parse_p99_us", "us", "sql.parse", statP99, toUs),
	fromSpan("opt.plan_us", "us", "opt.plan", statMedian, toUs),
	fromSpan("opt.plan_p99_us", "us", "opt.plan", statP99, toUs),
	fromSpan("opt.replay_us", "us", "opt.replay", statMedian, toUs),
	direct("opt.plan_mallocs", "count", "lower"),
	// exec (with vclock, storage, types, plan reached only through it).
	fromSpan("exec.run_ms", "ms", "exec.run", statMedian, toMs),
	fromSpan("exec.run_p95_ms", "ms", "exec.run", statP95, toMs),
	direct("exec.run_share", "ratio", "lower"),
	direct("exec.alloc_mb_per_query", "MB", "lower"),
	direct("exec.mallocs_per_query", "count", "lower"),
	direct("exec.virtual_s_sum", "s", "lower"),
	direct("exec.rows_out_sum", "count", "lower"),
	// workload + parallel.
	fromSpan("workload.build_s", "s", "workload.build", statMedian, toS),
	direct("workload.runquery_ms", "ms", "lower"),
	direct("workload.parallel_speedup", "ratio", "higher"),
	// qpp.
	fromSpan("qpp.features_us", "us", "qpp.features", statMedian, toUs),
	fromSpan("qpp.predict_plan_us", "us", "qpp.predict_plan", statMedian, toUs),
	fromSpan("qpp.predict_ops_us", "us", "qpp.predict_ops", statMedian, toUs),
	fromSpan("qpp.predict_hybrid_us", "us", "qpp.predict_hybrid", statMedian, toUs),
	fromSpan("qpp.predict_baseline_us", "us", "qpp.predict_baseline", statMedian, toUs),
	fromSpan("qpp.train_plan_s", "s", "qpp.train_plan", statMedian, toS),
	fromSpan("qpp.train_ops_s", "s", "qpp.train_ops", statMedian, toS),
	fromSpan("qpp.train_hybrid_s", "s", "qpp.train_hybrid", statMedian, toS),
	fromSpan("qpp.train_baseline_s", "s", "qpp.train_baseline", statMedian, toS),
	direct("qpp.hybrid_plan_models", "count", "lower"),
	// mlearn.
	fromSpan("mlearn.svr_fit_ms", "ms", "mlearn.svr_fit", statMedian, toMs),
	direct("mlearn.svr_rows", "count", "lower"),
	direct("mlearn.svr_cols", "count", "lower"),
	direct("mlearn.svr_support_vectors", "count", "lower"),
	fromSpan("mlearn.featsel_s", "s", "mlearn.featsel", statMedian, toS),
	fromSpan("mlearn.predict_us", "us", "mlearn.predict", statMedian, toUs),
	// experiments.
	fromSpan("experiments.buildenv_s", "s", "experiments.buildenv", statMedian, toS),
	fromSpan("experiments.fig6_s", "s", "experiments.fig6", statMedian, toS),
	fromSpan("experiments.fig7_s", "s", "experiments.fig7", statMedian, toS),
	fromSpan("experiments.fig8_s", "s", "experiments.fig8", statMedian, toS),
	fromSpan("experiments.fig9_s", "s", "experiments.fig9", statMedian, toS),
	// plancache.
	fromSpan("plancache.build_s", "s", "plancache.build", statMedian, toS),
	fromSpan("plancache.canonicalize_us", "us", "plancache.canonicalize", statMedian, toUs),
	fromSpan("plancache.memo_us", "us", "plancache.memo", statMedian, toUs),
	fromSpan("plancache.rebind_us", "us", "plancache.rebind", statMedian, toUs),
	fromSpan("plancache.fallback_us", "us", "plancache.fallback", statMedian, toUs),
	fromSpan("plancache.miss_us", "us", "plancache.miss", statMedian, toUs),
	direct("plancache.memo_share", "ratio", "higher"),
	direct("plancache.hit_share", "ratio", "higher"),
	direct("plancache.fallback_share", "ratio", "lower"),
	direct("plancache.heap_mb", "MB", "lower"),
	// serve.
	fromSpan("serve.handler_us", "us", "serve.handler", statMedian, toUs),
	fromSpan("serve.handler_p99_us", "us", "serve.handler", statP99, toUs),
	direct("serve.http_overhead_us", "us", "lower"),
	fromSpan("serve.decode_us", "us", "serve.decode", statMedian, toUs),
	fromSpan("serve.encode_us", "us", "serve.encode", statMedian, toUs),
	direct("serve.p50_ms", "ms", "lower"),
	direct("serve.rps", "1/s", "higher"),
	direct("serve.mallocs_per_req", "count", "lower"),
	direct("serve.alloc_kb_per_req", "kB", "lower"),
	fromSpan("serve.train_snapshot_s", "s", "serve.train_snapshot", statMedian, toS),
	fromSpan("serve.save_snapshot_s", "s", "serve.save_snapshot", statMedian, toS),
	fromSpan("serve.load_snapshot_s", "s", "serve.load_snapshot", statMedian, toS),
	direct("serve.errors_4xx", "count", "lower"),
	direct("serve.errors_5xx", "count", "lower"),
	// process and the trace itself.
	direct("runtime.gc_cycles_per_pass", "count", "lower"),
	direct("runtime.gc_pause_ms_per_pass", "ms", "lower"),
	direct("trace.unattributed_share", "ratio", "lower"),
	direct("trace.overhead_ratio", "ratio", "lower"),
	direct("ops_per_pass", "count", "higher"),
	// The paper's quality number; exact per seed, so any change in it
	// means predictions, plans or virtual latencies changed.
	direct("relerr_mean", "ratio", "lower"),
}

// layerValues holds one traced run's per-layer metrics.
type layerValues map[string]float64

func newLayerValues() layerValues {
	m := make(layerValues, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// set records a value for a declared metric; an undeclared name is a bug
// in the benchmark.
func (m layerValues) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic(fmt.Sprintf("bench: per-layer metric %q is not declared in perLayer", name))
	}
	m[name] = v
}

// fromSpans fills every span-derived metric whose span was recorded.
func (m layerValues) fromSpans(agg map[string]*spanStats) {
	for _, d := range perLayer {
		st := agg[d.span]
		if st == nil { // the layer did no work here, or the workload sets the metric itself
			continue
		}
		var v float64
		switch d.stat {
		case statMedian:
			v = median(st.durs)
		case statP99:
			v = percentile(sortedCopy(st.durs), 0.99)
		case statP95:
			v = percentile(sortedCopy(st.durs), 0.95)
		}
		m[d.name] = v * d.scale
	}
}

func (m layerValues) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return out
}
