// Package workload assembles training and test data for the QPP layer: it
// generates a TPC-H database and query workload, plans and executes every
// query on the instrumented engine under the paper's protocol (cold buffer
// cache per query, a virtual-time execution cap), and packages the
// instrumented plans and observed latencies as records.
//
// Queries are embarrassingly parallel under the paper's cold-start
// protocol — each owns a private virtual clock and buffer cache, and the
// database is read-only after generation — so Build fans them out across
// a worker pool. Per-query noise seeds are derived from the query's index
// in the workload (never from worker identity or completion order), which
// makes the output bit-identical for every worker count.
package workload

import (
	"fmt"
	"math/rand"

	"qpp/internal/exec"
	"qpp/internal/obs"
	"qpp/internal/opt"
	"qpp/internal/parallel"
	"qpp/internal/qpp"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
)

// Config describes one dataset build.
type Config struct {
	// ScaleFactor of the generated TPC-H database.
	ScaleFactor float64
	// Templates to generate (defaults to tpch.Templates).
	Templates []int
	// PerTemplate is the number of query instances per template (the paper
	// uses ~55).
	PerTemplate int
	// Seed drives data generation, parameter generation and noise.
	Seed int64
	// TimeLimit is the virtual-seconds execution cap per query (the
	// paper's one hour); 0 disables it.
	TimeLimit float64
	// Profile is the virtual device profile (zero value: DefaultProfile).
	Profile *vclock.DeviceProfile
	// Parallelism is the number of worker goroutines executing queries
	// (<= 0: GOMAXPROCS, 1: serial). Results are bit-identical for every
	// value: each query's seed depends only on its workload index.
	Parallelism int
	// Observe enables the observability layer: each query executes with
	// span tracing, and the Dataset carries per-query traces plus a
	// metrics registry (latency histograms per template, device totals,
	// per-operator-class work profile) merged in workload order. Off by
	// default — tracing adds per-iterator-call bookkeeping.
	Observe bool
}

// Dataset is an executed workload: the database plus one record per query
// that finished within the time limit.
type Dataset struct {
	DB      *storage.Database
	Records []*qpp.QueryRecord
	// TimedOut counts queries dropped per template by the execution cap,
	// mirroring how the paper's 10 GB dataset kept only 17 of 55
	// template-9 queries.
	TimedOut map[int]int
	Config   Config
	// Traces holds one execution trace per record (index-aligned with
	// Records) when Config.Observe was set; nil otherwise.
	Traces []*obs.Trace
	// Metrics aggregates per-query observations when Config.Observe was
	// set; nil otherwise. Workers fill index-addressed slots and the
	// registries are merged serially in workload order, so the dump is
	// byte-identical for every worker count.
	Metrics *obs.Registry
}

// Build generates, plans and executes the workload.
func Build(cfg Config) (*Dataset, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("workload: scale factor must be positive")
	}
	if cfg.PerTemplate <= 0 {
		return nil, fmt.Errorf("workload: per-template count must be positive")
	}
	templates := cfg.Templates
	if templates == nil {
		templates = tpch.Templates
	}
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	queries, err := tpch.GenWorkload(templates, cfg.PerTemplate, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{DB: db, TimedOut: map[int]int{}, Config: cfg}
	prof := vclock.DefaultProfile()
	if cfg.Profile != nil {
		prof = *cfg.Profile
	}
	// Noise seeds are drawn serially, indexed by workload position, before
	// any query runs: seed i is the i-th draw from the noise stream no
	// matter how many workers execute the queries or in what order they
	// finish. This is the determinism anchor for the whole parallel layer.
	noiseRng := rand.New(rand.NewSource(cfg.Seed + 2))
	seeds := make([]int64, len(queries))
	for i := range seeds {
		seeds[i] = noiseRng.Int63()
	}
	recs := make([]*qpp.QueryRecord, len(queries))
	traces := make([]*obs.Trace, len(queries))
	timedOut := make([]bool, len(queries))
	err = parallel.ForEach(len(queries), cfg.Parallelism, func(i int) error {
		rec, tr, err := RunQueryTraced(db, queries[i], prof, seeds[i], cfg.TimeLimit, cfg.Observe)
		if err == exec.ErrTimeout {
			timedOut[i] = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("workload: template %d: %w", queries[i].Template, err)
		}
		recs[i] = rec
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Assemble in workload order so Records and TimedOut match the serial
	// protocol exactly.
	for i, q := range queries {
		if timedOut[i] {
			ds.TimedOut[q.Template]++
			continue
		}
		ds.Records = append(ds.Records, recs[i])
		if cfg.Observe {
			ds.Traces = append(ds.Traces, traces[i])
		}
	}
	if cfg.Observe {
		ds.Metrics = buildMetrics(queries, recs, traces, timedOut)
	}
	return ds, nil
}

// buildMetrics aggregates per-query observations into one registry. It
// visits queries in workload order — the fixed merge order that keeps the
// aggregate byte-identical across worker counts.
func buildMetrics(queries []tpch.Query, recs []*qpp.QueryRecord, traces []*obs.Trace, timedOut []bool) *obs.Registry {
	reg := obs.NewRegistry()
	profile := obs.NewClassProfile()
	for i, q := range queries {
		if timedOut[i] {
			reg.Inc(fmt.Sprintf("queries.timeout.t%d", q.Template))
			continue
		}
		rec, tr := recs[i], traces[i]
		reg.Inc("queries.executed")
		reg.Observe("latency.all", rec.Time)
		reg.Observe(fmt.Sprintf("latency.t%d", q.Template), rec.Time)
		tot := tr.Totals()
		reg.Add("device.io_s", tot.IOTime)
		reg.Add("device.cpu_s", tot.CPUTime)
		reg.Add("device.numeric_s", tot.NumericTime)
		reg.Add("device.hidden_cpu_s", tot.HiddenCPU)
		reg.Add("device.pages_read", tot.PagesRead)
		reg.Add("device.cache_hits", tot.CacheHits)
		reg.Add("device.spill_pages", tot.SpillPages)
		// Cardinality estimation quality: q-error of every executed
		// operator, plus a per-template root histogram — the signal the
		// feedback loop is judged on.
		for _, s := range tr.Spans() {
			if qe := s.QError(); qe > 0 {
				reg.Observe("qerror.card", qe)
			}
		}
		if qe := rec.Root.CardQError(); qe > 0 {
			reg.Observe(fmt.Sprintf("qerror.t%d", q.Template), qe)
		}
		tr.Attribute(profile)
	}
	profile.RecordInto(reg, "profile")
	return reg
}

// RunQuery plans and executes one query cold (fresh clock and buffer
// cache), returning its instrumented record.
func RunQuery(db *storage.Database, q tpch.Query, prof vclock.DeviceProfile, noiseSeed int64, timeLimit float64) (*qpp.QueryRecord, error) {
	rec, _, err := RunQueryTraced(db, q, prof, noiseSeed, timeLimit, false)
	return rec, err
}

// RunQueryTraced is RunQuery with optional span tracing; when trace is
// set, the returned trace holds one span per executed operator with its
// exclusive I/O / CPU / numeric attribution. Tracing does not alter the
// virtual clock, so the record is bit-identical either way.
func RunQueryTraced(db *storage.Database, q tpch.Query, prof vclock.DeviceProfile, noiseSeed int64, timeLimit float64, trace bool) (*qpp.QueryRecord, *obs.Trace, error) {
	node, err := opt.PlanSQL(db, q.SQL)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: %w", err)
	}
	clock := vclock.NewClock(prof, noiseSeed)
	opts := exec.Options{TimeLimit: timeLimit}
	var tr *obs.Trace
	if trace {
		tr = obs.NewTrace(clock)
		opts.Trace = tr
	}
	res, err := exec.Run(db, node, clock, opts)
	if err != nil {
		return nil, nil, err
	}
	return &qpp.QueryRecord{
		Template: q.Template,
		SQL:      q.SQL,
		Root:     node,
		Time:     res.Elapsed,
	}, tr, nil
}

// FilterTemplates returns the records belonging to the given templates.
func FilterTemplates(recs []*qpp.QueryRecord, templates []int) []*qpp.QueryRecord {
	want := map[int]bool{}
	for _, t := range templates {
		want[t] = true
	}
	var out []*qpp.QueryRecord
	for _, r := range recs {
		if want[r.Template] {
			out = append(out, r)
		}
	}
	return out
}

// SplitLeaveTemplateOut partitions records into a training set (all other
// templates) and a test set (the held-out template) — the paper's dynamic
// workload protocol (Section 5.4).
func SplitLeaveTemplateOut(recs []*qpp.QueryRecord, heldOut int) (train, test []*qpp.QueryRecord) {
	for _, r := range recs {
		if r.Template == heldOut {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}
	return train, test
}

// TemplateLabels returns each record's template as a string label for
// stratified cross-validation.
func TemplateLabels(recs []*qpp.QueryRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("t%d", r.Template)
	}
	return out
}

// TemplatesPresent lists the distinct templates in the records, ascending.
func TemplatesPresent(recs []*qpp.QueryRecord) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range recs {
		if !seen[r.Template] {
			seen[r.Template] = true
			out = append(out, r.Template)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
