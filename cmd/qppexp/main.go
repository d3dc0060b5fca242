// Command qppexp regenerates the paper's evaluation: it builds the two
// TPC-H workloads (the paper's 10 GB / 1 GB pair, scaled), runs the chosen
// experiments, and prints the corresponding tables — one section per
// figure of the paper.
//
// Query execution, cross-validation folds, and the figure drivers
// themselves all run across a worker pool; results are bit-identical for
// every worker count, so -parallel only changes wall-clock time.
//
// Usage:
//
//	qppexp                        # all experiments at full reproduction scale
//	qppexp -exp fig5,fig6         # a subset
//	qppexp -quick                 # reduced scale for a fast smoke run
//	qppexp -per-template 20       # override workload size
//	qppexp -parallel 8            # worker count (default GOMAXPROCS)
//	qppexp -quick -metrics -      # dump the merged metrics registry to stdout
//	qppexp -quick -trace t.json   # Chrome trace of every executed query
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"qpp/internal/experiments"
	"qpp/internal/obs"
	"qpp/internal/parallel"
	"qpp/internal/prof"
	"qpp/internal/workload"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiments: fig4,fig5,fig6,fig7,fig8,fig9")
	quick := flag.Bool("quick", false, "reduced scale for a fast run")
	largeSF := flag.Float64("large-sf", 0, "override large scale factor")
	smallSF := flag.Float64("small-sf", 0, "override small scale factor")
	perTemplate := flag.Int("per-template", 0, "override queries per template")
	seed := flag.Int64("seed", 0, "override seed")
	par := flag.Int("parallel", 0, "worker goroutines for execution and training (0 = GOMAXPROCS, 1 = serial)")
	metricsOut := flag.String("metrics", "", "enable the obs layer and write the merged metrics registry dump to this file ('-' = stdout)")
	traceOut := flag.String("trace", "", "enable the obs layer and write a Chrome trace_event JSON of every executed query to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	flag.Parse()

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		log.Fatalf("qppexp: %v", err)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memProfile); err != nil {
			log.Fatalf("qppexp: %v", err)
		}
	}()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *largeSF > 0 {
		cfg.LargeSF = *largeSF
	}
	if *smallSF > 0 {
		cfg.SmallSF = *smallSF
	}
	if *perTemplate > 0 {
		cfg.PerTemplate = *perTemplate
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Parallelism = *par
	cfg.Observe = *metricsOut != "" || *traceOut != ""

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	fmt.Printf("# Learning-based QPP reproduction — experiment run\n")
	fmt.Printf("# large SF=%v small SF=%v per-template=%d seed=%d folds=%d workers=%d\n\n",
		cfg.LargeSF, cfg.SmallSF, cfg.PerTemplate, cfg.Seed, cfg.Folds,
		parallel.DefaultWorkers(cfg.Parallelism))

	t0 := time.Now()
	env, err := experiments.BuildEnv(cfg)
	if err != nil {
		log.Fatalf("qppexp: %v", err)
	}
	fmt.Printf("built workloads in %v: large=%d queries (timeouts %v), small=%d queries (timeouts %v)\n\n",
		time.Since(t0).Round(time.Millisecond),
		len(env.Large.Records), env.Large.TimedOut,
		len(env.Small.Records), env.Small.TimedOut)

	// The figure drivers are independent of each other: run them
	// concurrently, buffering each section, then print in a fixed order so
	// the report reads identically regardless of completion order. Each
	// driver hands back its result's metrics registry (nil unless the obs
	// layer is on); registries merge serially in driver order below.
	type driver struct {
		name string
		fn   func(*experiments.Env, io.Writer) (*obs.Registry, error)
	}
	drivers := []driver{
		{"fig5", runFig5},
		{"fig6", runFig6},
		{"fig7", runFig7},
		{"fig8", runFig8},
		{"fig9", runFig9},
		{"fig4", runFig4},
	}
	var selected []driver
	for _, d := range drivers {
		if all || want[d.name] {
			selected = append(selected, d)
		}
	}
	outputs := make([]bytes.Buffer, len(selected))
	regs := make([]*obs.Registry, len(selected))
	elapsed := make([]time.Duration, len(selected))
	err = parallel.ForEach(len(selected), cfg.Parallelism, func(i int) error {
		start := time.Now()
		reg, err := selected[i].fn(env, &outputs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", selected[i].name, err)
		}
		regs[i] = reg
		elapsed[i] = time.Since(start)
		return nil
	})
	if err != nil {
		log.Fatalf("qppexp: %v", err)
	}
	for i, d := range selected {
		io.Copy(os.Stdout, &outputs[i])
		fmt.Printf("(%s completed in %v)\n\n", d.name, elapsed[i].Round(time.Millisecond))
	}

	if *metricsOut != "" {
		merged := obs.NewRegistry()
		merged.MergePrefixed(env.Large.Metrics, "large.")
		merged.MergePrefixed(env.Small.Metrics, "small.")
		for _, reg := range regs {
			if reg != nil {
				merged.Merge(reg)
			}
		}
		if err := writeMetrics(*metricsOut, merged); err != nil {
			log.Fatalf("qppexp: %v", err)
		}
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut, env); err != nil {
			log.Fatalf("qppexp: %v", err)
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}
}

// writeMetrics dumps the merged registry to a file or stdout.
func writeMetrics(path string, reg *obs.Registry) error {
	if path == "-" {
		fmt.Println("## Metrics registry")
		_, err := reg.WriteTo(os.Stdout)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := reg.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraces exports every executed query's span trace as one Chrome
// trace_event process, large dataset first, in workload order.
func writeTraces(path string, env *experiments.Env) error {
	var traces []*obs.Trace
	var labels []string
	add := func(scale string, ds *workload.Dataset) {
		for i, tr := range ds.Traces {
			traces = append(traces, tr)
			labels = append(labels, fmt.Sprintf("%s t%d #%d", scale, ds.Records[i].Template, i))
		}
	}
	add("large", env.Large)
	add("small", env.Small)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, traces, labels); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func runFig5(env *experiments.Env, w io.Writer) (*obs.Registry, error) {
	res, err := experiments.Fig5(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## Figure 5 / Section 5.2 — Prediction with the optimizer cost model")
	fmt.Fprintf(w, "least-squares fit: time = %.3g * cost + %.3g\n", res.Slope, res.Intercept)
	fmt.Fprintf(w, "relative error: min=%s mean=%s max=%s   (paper: 30%% / 120%% / 1744%%)\n",
		pct(res.MinRel), pct(res.MeanRel), pct(res.MaxRel))
	fmt.Fprintf(w, "predictive risk: %.3f   (paper: ~0.93 — deceptively high)\n", res.PredictiveRisk)
	fmt.Fprintf(w, "scatter: %d (cost, time) points; sample:\n", len(res.Points))
	for i := 0; i < len(res.Points) && i < 5; i++ {
		p := res.Points[i]
		fmt.Fprintf(w, "  T%-2d cost=%12.1f time=%8.3fs\n", p.Template, p.Cost, p.Time)
	}
	return res.Metrics, nil
}

func templateTable(errs []experiments.TemplateError) string {
	var sb strings.Builder
	for _, e := range errs {
		fmt.Fprintf(&sb, "  T%-3d %8s  (n=%d)\n", e.Template, pct(e.Error), e.N)
	}
	return sb.String()
}

func runFig6(env *experiments.Env, w io.Writer) (*obs.Registry, error) {
	res, err := experiments.Fig6(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## Figure 6 / Section 5.3 — Static workload prediction")
	fmt.Fprintf(w, "### 6(a) Plan-level, large DB — mean %s (paper 6.75%%)\n%s",
		pct(res.PlanLargeMean), templateTable(res.PlanLarge))
	fmt.Fprintf(w, "### 6(c) Plan-level, small DB — mean %s (paper 17.43%%)\n%s",
		pct(res.PlanSmallMean), templateTable(res.PlanSmall))
	fmt.Fprintf(w, "### 6(d) Operator-level, large DB — mean %s over 14 (paper 53.9%%); best %d templates %s (paper: 11 at 7.3%%)\n%s",
		pct(res.OpLargeMean), res.OpLargeBestN, pct(res.OpLargeBestMean), templateTable(res.OpLarge))
	fmt.Fprintf(w, "### 6(f) Operator-level, small DB — mean %s over 14 (paper 59.6%%); best %d templates %s (paper: 8 at 16.45%%)\n%s",
		pct(res.OpSmallMean), res.OpSmallBestN, pct(res.OpSmallBestMean), templateTable(res.OpSmall))
	fmt.Fprintf(w, "### 6(b)/(e) scatter sizes: plan=%d points, op=%d points\n",
		len(res.PlanLargeScatter), len(res.OpLargeScatter))
	return res.Metrics, nil
}

func runFig7(env *experiments.Env, w io.Writer) (*obs.Registry, error) {
	res, err := experiments.Fig7(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## Figure 7 / Section 5.3.3 — Actual vs estimated feature values (large DB)")
	fmt.Fprintln(w, "  train/test        plan-level   operator-level")
	for _, c := range res.Combos {
		fmt.Fprintf(w, "  %-8s/%-9s %10s %14s\n", c.Train, c.Test, pct(c.PlanErr), pct(c.OpErr))
	}
	fmt.Fprintf(w, "### 7(b) Plan-level actual/actual by template\n%s", templateTable(res.PlanActualByTemplate))
	return res.Metrics, nil
}

func runFig8(env *experiments.Env, w io.Writer) (*obs.Registry, error) {
	res, err := experiments.Fig8(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## Figure 8 / Section 5.3.4 — Hybrid plan-ordering strategies (held-out error vs iteration)")
	names := make([]string, 0, len(res.Curves))
	for n := range res.Curves {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		curve := res.Curves[name]
		fmt.Fprintf(w, "  %-16s models=%d: ", name, res.ModelsAccepted[name])
		for _, p := range curve {
			fmt.Fprintf(w, "%d:%s ", p.Iter, pct(p.Error))
		}
		fmt.Fprintln(w)
	}
	return res.Metrics, nil
}

func runFig9(env *experiments.Env, w io.Writer) (*obs.Registry, error) {
	res, err := experiments.Fig9(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## Figure 9 / Section 5.4 — Dynamic workload (leave one template out)")
	fmt.Fprintln(w, "  tmpl   plan-level   op-level   error-based   size-based   online")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  T%-3d %10s %10s %12s %12s %9s\n", r.Template,
			pct(r.PlanLevel), pct(r.OpLevel), pct(r.ErrorBased), pct(r.SizeBased), pct(r.Online))
	}
	fmt.Fprintf(w, "  mean %10s %10s %12s %12s %9s\n",
		pct(res.PlanMean), pct(res.OpMean), pct(res.ErrMean), pct(res.SizeMean), pct(res.OnlineMean))
	return res.Metrics, nil
}

func runFig4(env *experiments.Env, w io.Writer) (*obs.Registry, error) {
	res, err := experiments.Fig4(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "## Figure 4 / Section 4 — Common sub-plan analysis (14 templates, large DB)")
	fmt.Fprintln(w, "### 4(a) CDF of common sub-plan sizes")
	for _, p := range res.SizeCDF {
		fmt.Fprintf(w, "  size<=%-3d F=%.2f\n", p.Size, p.F)
	}
	fmt.Fprintln(w, "### 4(b) Most common sub-plans")
	for _, s := range res.TopSubplans {
		sig := s.Signature
		if len(sig) > 90 {
			sig = sig[:90] + "…"
		}
		fmt.Fprintf(w, "  %4d occurrences in %2d templates (size %d): %s\n", s.Occurrences, s.Templates, s.Size, sig)
	}
	fmt.Fprintln(w, "### 4(c) Templates sharing common sub-plans")
	for _, s := range res.Sharing {
		fmt.Fprintf(w, "  T%-3d shares with %d other templates\n", s.Template, s.SharesWith)
	}
	return res.Metrics, nil
}
