// Command bench is the repository's one benchmark: four workloads over
// the two user paths (reproducing the paper in batch; serving
// predictions over HTTP), end-to-end metrics measured with tracing off,
// and per-layer metrics from a separate traced run in which the
// benchmark itself wraps every call into a layer's public function in a
// span. README.md in this directory defines every name printed here.
//
//	bench --workload W --seed S --seconds N --trace 0|1 [--out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	out      string // raw samples and span dumps go here ("" = no files, except the traced run's spans)
	tmp      string // scratch space inside the checkout
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minWorkers is both the load the benchmark generates (2 workers, 2
// keep-alive connections) and the fewest CPUs it accepts: the numbers
// are only comparable across machines when neither side is starved.
const minWorkers = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var report string
	fs.StringVar(&o.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "drives every generated input (per instance k, on S+100000k: data, training draws +1, requests +1000, pool shuffle +2000)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed passes run in total (at least 3 passes per instance)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced single-threaded run")
	fs.StringVar(&o.out, "out", "", "directory for raw per-pass samples and span dumps")
	fs.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory")
	fs.StringVar(&report, "report", "", "compare two result sets (A.jsonl,B.jsonl) against the bounds in BENCHMARK.json instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if report != "" {
		return noiseReport(report, stdout, stderr)
	}
	def, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1\n")
		return 2
	}
	if runtime.NumCPU() < minWorkers {
		fmt.Fprintf(stderr, "bench: %d CPU(s); the benchmark drives %d workers and refuses to run with fewer CPUs\n",
			runtime.NumCPU(), minWorkers)
		return 2
	}
	fmt.Fprintf(stdout, "machine: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernelRelease())
	fmt.Fprintf(stdout, "run: workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, trace)

	ck := &checker{log: stderr}
	var metrics map[string]metric
	var err error
	if trace == 1 {
		metrics, err = runTraced(o, def, ck, stdout)
	} else {
		metrics, err = runUntraced(o, def, ck, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	printMetrics(stdout, o.workload, metrics)
	fmt.Fprintf(stdout, "%s ops_attempted %d\n%s ops_failed %d\n", o.workload, ck.attempted, o.workload, ck.failed)
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if ck.failed > 0 {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, name, m.Value, m.Unit)
	}
}

// kernelRelease reports the running kernel, for the record only.
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// checker counts attempted and failed operations: timed ops and output
// checks alike. A failed check is a failed op.
type checker struct {
	attempted, failed int
	log               io.Writer
}

// maxLogged bounds how many failures are spelled out on stderr.
const maxLogged = 20

// check records one attempted op or output check.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if c.failed <= maxLogged {
		fmt.Fprintf(c.log, "bench: FAILED: "+format+"\n", args...)
	}
}

// ops records n attempted ops of which failed failed.
func (c *checker) ops(n, failed int, what string) {
	c.attempted += n
	c.failed += failed
	if failed > 0 {
		fmt.Fprintf(c.log, "bench: FAILED: %d of %d %s\n", failed, n, what)
	}
}

// passResult is one pass of a workload's fixed work.
type passResult struct {
	wall     float64   // seconds for the whole pass
	lat      []float64 // per-op seconds
	tail     float64   // the pass's tail op latency in seconds
	tailName string    // what tail is: "p99", "the mean at and beyond p95", "the slowest op"
	failed   int
}

// system is one workload's ready system under test.
type system interface {
	// pass runs the workload's fixed work once, tracing off, with
	// minWorkers workers.
	pass() (passResult, error)
	// verify runs the output checks that sit outside the timed passes.
	verify(ck *checker)
	// tracedPass runs the same ops single-threaded, each decomposed by
	// the benchmark into spans around the layers' public functions.
	tracedPass(tr *tracer, ck *checker) error
	// probes times layer entry points that no op of the pass reaches from
	// outside (set-up work, model training), into spans without an op.
	probes(tr *tracer, m layerValues) error
	// layerMetrics fills in the per-layer metrics this workload
	// exercises; ref is the untraced reference pass of the traced run.
	layerMetrics(m layerValues, agg map[string]*spanStats, ref passResult)
	close() error
}

// workloadDef describes one workload. setup builds one ready system;
// with a tracer it builds it step by step from outside, one span per
// layer entry point.
type workloadDef struct {
	why string
	// instances is how many independent systems an untraced run sets up
	// and measures, one after the other, on seeds S, S+instanceSeedStride,
	// …: what a system costs depends on the data its seed draws (which
	// plans, how many support vectors, how heavy the heavy template's
	// parameters), so a run measures several and reports their mean, and
	// one seed's luck does not move a metric.
	instances int
	warmups   int // untimed passes per instance before its first timed one
	setup     func(o options, tr *tracer) (system, error)
}

// instanceSeedStride separates the seeds of a run's instances; each
// instance derives its own streams at small offsets (S+1 … S+3000).
const instanceSeedStride = 100000

var workloads = map[string]workloadDef{
	"batch_exec": {
		why:       "plan and execute every TPC-H template on the virtual device with 2 workers: exec does the work, no model is trained or served",
		instances: 3,
		// workload.Build's first, cold execution of the same queries in
		// set-up is the warm-up pass.
		warmups: 0,
		setup:   setupBatchExec,
	},
	"batch_train": {
		why:       "cross-validated training of every model family on pre-executed workloads (figure drivers 6 to 9, four seeds): mlearn and qpp do the work, exec none",
		instances: 4,
		// The first timed pass of an instance warms up; the best-of-passes
		// metrics ignore it.
		warmups: 0,
		setup:   setupBatchTrain,
	},
	"serve_hot": {
		why:       "closed-loop /predict over loopback HTTP, 2 clients, trained templates only: plan-cache memo and rebind, model evaluation and JSON do the work, the join search none",
		instances: 3,
		warmups:   1,
		setup:     func(o options, tr *tracer) (system, error) { return setupServe(o, tr, true) },
	},
	"serve_cold": {
		why:       "the same server restored from a saved snapshot (no plan cache), fresh draws of all 18 templates: every request is lexed, parsed and cold-planned",
		instances: 3,
		warmups:   1,
		setup:     func(o options, tr *tracer) (system, error) { return setupServe(o, tr, false) },
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// metricDef declares a metric's unit and direction; BENCHMARK.json must
// agree (contract_test.go).
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd lists what a user of the system sees. Every workload reports
// all of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pass_s", "s", "lower"},
	{"tail_ms", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// minPasses is the fewest timed passes every instance gets whatever
// --seconds says; pass_s and tail_ms take the best of an instance's
// passes.
const minPasses = 3

// instance is what one of a run's independent systems measured.
type instance struct {
	seed     int64
	setupS   float64
	heapMB   float64
	ops      int    // per pass
	tailName string // what a pass's tail is
	passes   []passSample
}

// passSample is what a run keeps of one timed pass (the per-op
// latencies would count into the next instance's live heap).
type passSample struct {
	wall, tail, p50 float64
}

// runUntraced measures the end-to-end metrics on def.instances systems,
// one after the other, each with its share of --seconds.
func runUntraced(o options, def workloadDef, ck *checker, stdout io.Writer) (map[string]metric, error) {
	var insts []*instance
	t0 := time.Now()
	for k := 0; k < def.instances; k++ {
		ko := o
		ko.seed = o.seed + int64(k)*instanceSeedStride
		ko.seconds = o.seconds / float64(def.instances)
		in, err := runInstance(ko, def, ck)
		if err != nil {
			return nil, fmt.Errorf("instance %d (seed %d): %w", k, ko.seed, err)
		}
		insts = append(insts, in)
	}

	var setups, heaps, walls, tails []float64
	passes := 0
	for _, in := range insts {
		w, t := in.best()
		setups, heaps = append(setups, in.setupS), append(heaps, in.heapMB)
		walls, tails = append(walls, w), append(tails, t)
		passes += len(in.passes)
	}
	fmt.Fprintf(stdout, "%s: %d instances, %d passes of %d ops, %.2f s in all; tail is %s per pass\n",
		o.workload, len(insts), passes, insts[0].ops, time.Since(t0).Seconds(), insts[0].tailName)
	if o.out != "" {
		if err := writeSamples(o, insts); err != nil {
			return nil, err
		}
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"pass_s":       {mean(walls), "s"},
		"tail_ms":      {mean(tails) * 1e3, "ms"},
		"live_heap_mb": {mean(heaps), "MB"},
	}, nil
}

// runInstance sets one system up, measures it and takes it down again:
// only one instance is alive at a time, so its heap — and with it how
// often the collector runs during a pass — is that of one system.
func runInstance(o options, def workloadDef, ck *checker) (in *instance, err error) {
	t0 := time.Now()
	sys, err := def.setup(o, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	in = &instance{seed: o.seed, setupS: time.Since(t0).Seconds()}
	defer func() {
		if cerr := sys.close(); cerr != nil && err == nil {
			in, err = nil, cerr
		}
	}()
	in.heapMB = liveHeapMB()

	for i := 0; i < def.warmups; i++ {
		p, err := sys.pass()
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		ck.ops(len(p.lat), p.failed, "warm-up ops")
	}
	t0 = time.Now()
	for len(in.passes) < minPasses || time.Since(t0).Seconds() < o.seconds {
		p, err := sys.pass()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(in.passes)+1, err)
		}
		ck.ops(len(p.lat), p.failed, "timed ops")
		in.ops, in.tailName = len(p.lat), p.tailName
		in.passes = append(in.passes, passSample{p.wall, p.tail, median(p.lat)})
	}
	sys.verify(ck)
	return in, nil
}

// best is the instance's fastest pass and its smallest per-pass tail.
func (in *instance) best() (wall, tail float64) {
	walls := make([]float64, len(in.passes))
	tails := make([]float64, len(in.passes))
	for i, p := range in.passes {
		walls[i], tails[i] = p.wall, p.tail
	}
	return best(walls), best(tails)
}

// liveHeapMB is what the ready system holds: HeapAlloc after two
// collections (the second frees what finalizers released in the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// samples is the raw-sample file layout of an untraced run.
type samples struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Instances []instanceSamples `json:"instances"`
}

type instanceSamples struct {
	Seed       int64     `json:"seed"`
	SetupS     float64   `json:"setup_s"`
	LiveHeapMB float64   `json:"live_heap_mb"`
	PassS      []float64 `json:"pass_s"`
	TailMs     []float64 `json:"tail_ms"`
	// OpP50Ms is each pass's median op latency, for reading alongside
	// the tail.
	OpP50Ms []float64 `json:"op_p50_ms"`
}

func writeSamples(o options, insts []*instance) error {
	s := samples{Workload: o.workload, Seed: o.seed}
	for _, in := range insts {
		is := instanceSamples{Seed: in.seed, SetupS: in.setupS, LiveHeapMB: in.heapMB}
		for _, p := range in.passes {
			is.PassS = append(is.PassS, p.wall)
			is.TailMs = append(is.TailMs, p.tail*1e3)
			is.OpP50Ms = append(is.OpP50Ms, p.p50*1e3)
		}
		s.Instances = append(s.Instances, is)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("bench: out dir: %w", err)
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode samples: %w", err)
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.samples.json", o.workload, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("bench: write samples: %w", err)
	}
	return nil
}

// gcDelta is the collector's activity between two points.
type gcDelta struct {
	cycles  float64
	pauseMs float64
	mallocs float64
	allocMB float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memDelta(before, after runtime.MemStats) gcDelta {
	return gcDelta{
		cycles:  float64(after.NumGC - before.NumGC),
		pauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		mallocs: float64(after.Mallocs - before.Mallocs),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
}

// runTraced measures the per-layer metrics: one set-up built step by
// step under spans, one untraced reference pass, one single-threaded
// traced pass, then the probes.
func runTraced(o options, def workloadDef, ck *checker, stdout io.Writer) (map[string]metric, error) {
	tr := newTracer()
	sys, err := def.setup(o, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	if _, err := sys.pass(); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	before := readMem()
	ref, err := sys.pass()
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	gc := memDelta(before, readMem())
	ck.ops(len(ref.lat), ref.failed, "reference-pass ops")

	if err := sys.tracedPass(tr, ck); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	m := newLayerValues()
	if err := sys.probes(tr, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	sys.verify(ck)

	agg := aggregate(tr.spans)
	m.fromSpans(agg)
	m.set("runtime.gc_cycles_per_pass", gc.cycles)
	m.set("runtime.gc_pause_ms_per_pass", gc.pauseMs)
	m.set("ops_per_pass", float64(len(ref.lat)))
	if ops := agg[opSpan]; ops != nil {
		m.set("trace.unattributed_share", ratio(ops.self, sum(ops.durs)))
	}
	sys.layerMetrics(m, agg, ref)

	dir := o.out
	if dir == "" {
		dir = filepath.Join(filepath.Dir(o.tmp), "trace")
	}
	path, err := tr.dump(dir, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: %d spans written to %s\n", o.workload, len(tr.spans), path)
	return m.metrics(), nil
}
