package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qpp/internal/mlearn"
	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/plancache"
	"qpp/internal/qpp"
	"qpp/internal/serve"
	"qpp/internal/sql"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
	"qpp/internal/workload"
)

const (
	// The served models are trained as cmd/qppserve trains them in
	// process (14 operator-level templates, error-based hybrid), at a
	// size three set-ups of which fit a run.
	serveSF          = 0.005
	servePerTemplate = 8

	// drawsPerTemplate fresh parameter draws of each template make the
	// request pool.
	drawsPerTemplate = 50
	// A pass is a whole number of cycles through the shuffled pool, about
	// half a second of closed-loop traffic (9 800 and 2 700 requests):
	// whole cycles keep the mix exact, both are well over the 1 000 ops a
	// p99 needs, and short passes give a run many chances of a quiet one.
	hotPassCycles  = 7
	coldPassCycles = 3
	// tracedOps requests are taken apart in the traced pass.
	tracedOps = 3000
	// checkDraws draws per template are compared with the benchmark's own
	// decomposition, and scored against the executed latency for
	// relerr_mean.
	checkDraws = 10
)

// Span names of the four ways plancache.Cache.Plan can serve a request.
const (
	spanMemo     = "plancache.memo"     // exact-text memo: a training draw repeated verbatim
	spanRebind   = "plancache.rebind"   // template hit, selector (or single candidate) chose
	spanFallback = "plancache.fallback" // template hit, every candidate replayed and costed
	spanMiss     = "plancache.miss"     // cold-planned behind the cache
)

// poolEntry is one distinct request of the pool.
type poolEntry struct {
	query tpch.Query
	body  []byte // the request, JSON
	want  []byte // the response the server gave first; every repeat must equal it
	fresh bool   // a fresh parameter draw (not part of the training workload)
	// path is how the snapshot's plan cache serves the text (spanMiss
	// when the snapshot has none); fallback is whether the plan it serves
	// was chosen by the cost-based fallback (a memoized plan keeps the
	// outcome it was built with).
	path     string
	fallback bool
}

// serveSystem is a trained snapshot behind a real HTTP listener on
// loopback, plus the request pool and the clients that drive it.
type serveSystem struct {
	o    options
	hot  bool
	snap *serve.Snapshot
	db   *storage.Database
	srv  *serve.Server

	httpSrv *http.Server
	served  chan error
	url     string
	client  *http.Client

	entries []poolEntry
	order   []int          // a pass sends entries[order[j%len(order)]] as its j-th request
	sent    []atomic.Int64 // requests the server was given, per entry
	passOps int

	// Traced run only.
	records     []*qpp.QueryRecord // the training workload, for the training probes
	cacheHeapMB float64
	errors4xx   float64
	errors5xx   float64
	relerr      float64
	reqMem      gcDelta
	planMallocs float64
}

func setupServe(o options, tr *tracer, hot bool) (sys system, err error) {
	s := &serveSystem{o: o, hot: hot}
	cfg := serve.TrainConfig{
		ScaleFactor: serveSF,
		PerTemplate: servePerTemplate,
		Seed:        o.seed,
		Strategy:    qpp.ErrorBased,
		Parallelism: minWorkers,
	}
	if tr == nil {
		s.snap, s.db, err = serve.TrainSnapshot(cfg)
	} else {
		err = s.trainStepwise(tr, cfg)
	}
	if err != nil {
		return nil, err
	}
	if !hot {
		// The production path of `qppserve -models dir`: the snapshot goes
		// through its on-disk form and comes back without a plan cache.
		if err := s.throughDisk(tr); err != nil {
			return nil, err
		}
	}
	s.srv = serve.New(s.db, s.snap, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        minWorkers,
		MaxIdleConnsPerHost: minWorkers,
		DisableCompression:  true,
	}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := s.buildPool(); err != nil {
		return nil, err
	}
	if err := s.capture(); err != nil {
		return nil, err
	}
	return s, nil
}

// trainStepwise is serve.TrainSnapshot taken apart, one span per layer
// entry point (TestStepwiseSnapshotMatchesTrainSnapshot pins that the
// two snapshots answer identically).
func (s *serveSystem) trainStepwise(tr *tracer, cfg serve.TrainConfig) error {
	all := tr.begin("serve.train_snapshot")
	defer tr.end(all)
	var ds *workload.Dataset
	if err := tr.time("workload.build", func() (err error) {
		ds, err = workload.Build(workload.Config{
			ScaleFactor: cfg.ScaleFactor,
			Templates:   tpch.OperatorLevelTemplates,
			PerTemplate: cfg.PerTemplate,
			Seed:        cfg.Seed,
			Parallelism: cfg.Parallelism,
		})
		return err
	}); err != nil {
		return err
	}
	snap := &serve.Snapshot{Version: fmt.Sprintf("bench-stepwise-seed%d", cfg.Seed)}
	if err := tr.time("qpp.train_plan", func() (err error) {
		snap.Plan, err = qpp.TrainPlanLevel(ds.Records, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
		return err
	}); err != nil {
		return err
	}
	if err := tr.time("qpp.train_hybrid", func() (err error) {
		snap.Hybrid, _, err = qpp.TrainHybrid(ds.Records, qpp.DefaultHybridConfig(cfg.Strategy))
		return err
	}); err != nil {
		return err
	}
	if err := tr.time("qpp.train_baseline", func() (err error) {
		snap.Baseline, err = qpp.TrainCostBaseline(ds.Records)
		return err
	}); err != nil {
		return err
	}
	sqls := make([]string, len(ds.Records))
	for i, rec := range ds.Records {
		sqls[i] = rec.SQL
	}
	id := tr.begin("bench.memstats")
	before := liveHeapMB()
	tr.end(id)
	if err := tr.time("plancache.build", func() (err error) {
		snap.Cache, err = plancache.Build(ds.DB, sqls, plancache.Config{LabelSeed: cfg.Seed})
		return err
	}); err != nil {
		return err
	}
	id = tr.begin("bench.memstats")
	s.cacheHeapMB = liveHeapMB() - before
	tr.end(id)
	s.snap, s.db, s.records = snap, ds.DB, ds.Records
	return nil
}

// throughDisk saves the snapshot and loads it back, as a restarted
// qppserve would.
func (s *serveSystem) throughDisk(tr *tracer) error {
	if err := os.MkdirAll(s.o.tmp, 0o755); err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(s.o.tmp, "snapshot-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	if err := tr.time("serve.save_snapshot", func() error { return serve.SaveSnapshot(dir, s.snap) }); err != nil {
		return err
	}
	return tr.time("serve.load_snapshot", func() (err error) {
		s.snap, err = serve.LoadSnapshot(dir)
		return err
	})
}

// buildPool generates the request pool from the seed. Hot: every second
// request repeats a training draw verbatim (an exact-memo key), the
// others are fresh draws of the trained templates, so the memo share is
// one half by construction whatever the seed. Cold: fresh draws of all
// 18 templates.
func (s *serveSystem) buildPool() error {
	templates := tpch.Templates
	if s.hot {
		templates = tpch.OperatorLevelTemplates
	}
	training, err := tpch.GenWorkload(tpch.OperatorLevelTemplates, servePerTemplate, s.o.seed+1)
	if err != nil {
		return err
	}
	trained := make(map[string]bool, len(training))
	for _, q := range training {
		trained[q.SQL] = true
	}
	// Templates with few parameter values redraw training texts often; a
	// fresh draw is one the training workload does not hold, so draws are
	// generated until every template has drawsPerTemplate unseen ones.
	var fresh []tpch.Query
	for factor := 2; len(fresh) != len(templates)*drawsPerTemplate; factor *= 2 {
		if factor > 64 {
			return fmt.Errorf("only %d of %d fresh draws are not training texts", len(fresh), len(templates)*drawsPerTemplate)
		}
		drawn, err := tpch.GenWorkload(templates, factor*drawsPerTemplate, s.o.seed+1000)
		if err != nil {
			return err
		}
		fresh = fresh[:0]
		kept := map[int]int{}
		for _, q := range drawn {
			if !trained[q.SQL] && kept[q.Template] < drawsPerTemplate {
				kept[q.Template]++
				fresh = append(fresh, q)
			}
		}
	}
	index := map[string]int{}
	add := func(q tpch.Query, isFresh bool) (int, error) {
		if i, ok := index[q.SQL]; ok {
			return i, nil
		}
		body, err := json.Marshal(serve.PredictRequest{SQL: q.SQL})
		if err != nil {
			return 0, fmt.Errorf("encode request: %w", err)
		}
		e := poolEntry{query: q, body: body, fresh: isFresh, path: spanMiss}
		index[q.SQL] = len(s.entries)
		s.entries = append(s.entries, e)
		return len(s.entries) - 1, nil
	}
	var memo []int
	if s.hot {
		for _, q := range training {
			i, err := add(q, false)
			if err != nil {
				return err
			}
			memo = append(memo, i)
		}
	}
	for k, q := range fresh {
		i, err := add(q, true)
		if err != nil {
			return err
		}
		s.order = append(s.order, i)
		if s.hot {
			s.order = append(s.order, memo[k%len(memo)])
		}
	}
	rand.New(rand.NewSource(s.o.seed+2000)).Shuffle(len(s.order), func(a, b int) {
		s.order[a], s.order[b] = s.order[b], s.order[a]
	})
	s.sent = make([]atomic.Int64, len(s.entries))
	s.passOps = coldPassCycles * len(s.order)
	if s.hot {
		s.passOps = hotPassCycles * len(s.order)
	}

	// Classify each text by asking the cache directly, outside the server,
	// so the server's counters can be checked against an independent count.
	if s.snap.Cache == nil {
		return nil
	}
	for i := range s.entries {
		e := &s.entries[i]
		_, outcome, err := s.snap.Cache.Plan(e.query.SQL)
		if err != nil {
			return fmt.Errorf("classify template %d: %w", e.query.Template, err)
		}
		e.path = planPath(trained[e.query.SQL], outcome)
		e.fallback = outcome == plancache.OutcomeHitFallback
	}
	return nil
}

// mix is the share of a pass's requests that take each plan path.
func (s *serveSystem) mix() map[string]float64 {
	slots := map[string]int{}
	for _, i := range s.order {
		slots[s.entries[i].path]++
	}
	out := make(map[string]float64, len(slots))
	for path, n := range slots {
		out[path] = float64(n) / float64(len(s.order))
	}
	return out
}

func planPath(memo bool, outcome plancache.Outcome) string {
	switch {
	case memo:
		return spanMemo
	case outcome == plancache.OutcomeHit:
		return spanRebind
	case outcome == plancache.OutcomeHitFallback:
		return spanFallback
	default:
		return spanMiss
	}
}

// capture sends every distinct request once, validates the answer in
// full, and keeps its bytes: the server is deterministic, so every later
// answer to the same text must be identical.
func (s *serveSystem) capture() error {
	var buf bytes.Buffer
	for i := range s.entries {
		e := &s.entries[i]
		status, err := s.post(i, &buf)
		if err != nil {
			return fmt.Errorf("template %d: %w", e.query.Template, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("template %d: status %d: %s", e.query.Template, status, buf.Bytes())
		}
		var res serve.PredictResult
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			return fmt.Errorf("template %d: decode response: %w", e.query.Template, err)
		}
		if math.IsNaN(res.LatencySec) || math.IsInf(res.LatencySec, 0) || res.LatencySec < 0 {
			return fmt.Errorf("template %d: latency_sec %v is not a finite, non-negative prediction", e.query.Template, res.LatencySec)
		}
		e.want = append([]byte(nil), buf.Bytes()...)
	}
	return nil
}

// post sends entry i to /predict over the socket and leaves the response
// body in buf.
func (s *serveSystem) post(i int, buf *bytes.Buffer) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/predict", bytes.NewReader(s.entries[i].body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	s.sent[i].Add(1)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// pass is a closed loop: minWorkers clients, each sending its next
// request only when the previous answer has arrived, until passOps
// requests are done. An answer that is not a 200 carrying exactly the
// bytes the server gave for that text the first time is a failed op.
func (s *serveSystem) pass() (passResult, error) {
	n := s.passOps
	lat := make([]float64, n)
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < minWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				i := s.order[j%len(s.order)]
				t := time.Now()
				status, err := s.post(i, &buf)
				lat[j] = time.Since(t).Seconds()
				if err != nil || status != http.StatusOK || !bytes.Equal(buf.Bytes(), s.entries[i].want) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p := passResult{wall: time.Since(t0).Seconds(), lat: lat, failed: int(failed.Load())}
	var q float64
	p.tail, q = tail(lat)
	p.tailName = fmt.Sprintf("p%g", q*100)
	return p, nil
}

// recorder is a reusable http.ResponseWriter for calling the handler
// without a socket; it allocates nothing per request, so the handler's
// allocations can be counted.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) reset() {
	for k := range r.header {
		delete(r.header, k)
	}
	r.status = http.StatusOK
	r.body.Reset()
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// handle calls Server.ServeHTTP for entry i in process.
func (s *serveSystem) handle(i int, req *http.Request, body *bodyReader, rec *recorder) {
	body.Reset(s.entries[i].body)
	req.Body = body
	rec.reset()
	s.sent[i].Add(1)
	s.srv.ServeHTTP(rec, req)
}

func newPredictRequest() (*http.Request, *bodyReader, *recorder, error) {
	req, err := http.NewRequest(http.MethodPost, "/predict", nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return req, &bodyReader{}, &recorder{header: http.Header{}}, nil
}

// decompose answers one request the way Server.handlePredict does, but
// by calling each layer's public function from here, each under its own
// span: JSON decode → plancache.Cache.Plan (sql.Parse + opt.Plan when
// the snapshot has no cache) → the four predictors → qpp.PlanFeatures
// and the applicability check → JSON encode. It returns the response
// body, which must equal the server's byte for byte.
func (s *serveSystem) decompose(tr *tracer, e *poolEntry) ([]byte, error) {
	id := tr.begin("serve.decode")
	var req serve.PredictRequest
	err := json.NewDecoder(bytes.NewReader(e.body)).Decode(&req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	snap := s.snap
	var node *plan.Node
	if snap.Cache != nil {
		id = tr.begin(e.path)
		node, _, err = snap.Cache.Plan(req.SQL)
		tr.end(id)
	} else {
		id = tr.begin("sql.parse")
		stmt, perr := sql.Parse(req.SQL)
		tr.end(id)
		if perr != nil {
			return nil, perr
		}
		id = tr.begin("opt.plan")
		node, err = opt.Plan(s.db, stmt)
		tr.end(id)
	}
	if err != nil {
		return nil, err
	}
	rec := &qpp.QueryRecord{SQL: req.SQL, Root: node}
	res := &serve.PredictResult{ModelVersion: snap.Version, Predictions: map[string]float64{}}

	id = tr.begin("qpp.predict_plan")
	planPred := snap.Plan.Predict(rec)
	tr.end(id)
	res.Predictions["plan-level"] = planPred
	res.LatencySec = planPred

	if snap.Baseline != nil {
		id = tr.begin("qpp.predict_baseline")
		res.Predictions["cost-model"] = snap.Baseline.Predict(rec)
		tr.end(id)
	}
	skip := func(model string, err error) {
		if res.Skipped == nil {
			res.Skipped = map[string]string{}
		}
		res.Skipped[model] = err.Error()
	}
	id = tr.begin("qpp.predict_ops")
	op, err := snap.Hybrid.Ops.Predict(rec, qpp.ChildTimesPredicted)
	tr.end(id)
	if err == nil {
		res.Predictions["operator-level"] = op
	} else {
		skip("operator-level", err)
	}
	id = tr.begin("qpp.predict_hybrid")
	hy, err := snap.Hybrid.Predict(rec)
	tr.end(id)
	if err == nil {
		res.Predictions["hybrid"] = hy
		res.LatencySec = hy
	} else {
		skip("hybrid", err)
	}
	id = tr.begin("qpp.features")
	feats := qpp.PlanFeatures(node, snap.Plan.Mode)
	in := snap.Plan.Model.InRange(feats, qpp.ApplicabilityMargin)
	tr.end(id)
	level := "low"
	if in {
		level = "high"
	}
	res.Confidence = serve.Confidence{Level: level, InRange: in, TrainError: snap.Plan.Model.TrainError}

	id = tr.begin("serve.encode")
	out, err := json.Marshal(res)
	tr.end(id)
	return out, err
}

// tracedPass gives the first tracedOps requests of a pass to the handler
// in process (serve.handler: everything but the socket) and then takes
// each apart (op and its children). Both answers must equal the bytes
// the server sent over the socket.
func (s *serveSystem) tracedPass(tr *tracer, ck *checker) error {
	req, body, rec, err := newPredictRequest()
	if err != nil {
		return err
	}
	for j := 0; j < tracedOps; j++ {
		i := s.order[j%len(s.order)]
		e := &s.entries[i]
		id := tr.begin("serve.handler")
		s.handle(i, req, body, rec)
		tr.end(id)
		ck.check(rec.status == http.StatusOK && bytes.Equal(rec.body.Bytes(), e.want),
			"%s: in-process handler answered template %d with status %d, body differs from the socket's: %v",
			s.o.workload, e.query.Template, rec.status, !bytes.Equal(rec.body.Bytes(), e.want))

		op := tr.beginOp(j)
		got, err := s.decompose(tr, e)
		tr.endOp(op)
		ck.check(err == nil && bytes.Equal(got, e.want),
			"%s: decomposition of template %d gives %s (err %v), server gave %s", s.o.workload, e.query.Template, got, err, e.want)
	}
	return nil
}

// checkEntries are the first checkDraws fresh draws of every template.
func (s *serveSystem) checkEntries() []int {
	perTemplate := map[int]int{}
	var out []int
	for i := range s.entries {
		e := &s.entries[i]
		if e.fresh && perTemplate[e.query.Template] < checkDraws {
			perTemplate[e.query.Template]++
			out = append(out, i)
		}
	}
	return out
}

// verify checks, outside the timed passes, that the spans time the work
// the server does (the decomposition reproduces the socket's answer
// exactly) and that the server's own counters equal the benchmark's
// independent count of what it sent.
func (s *serveSystem) verify(ck *checker) {
	var buf bytes.Buffer
	for _, i := range s.checkEntries() {
		e := &s.entries[i]
		status, err := s.post(i, &buf)
		ck.check(err == nil && status == http.StatusOK && bytes.Equal(buf.Bytes(), e.want),
			"%s: repeat of template %d: status %d err %v, body %s, first answer %s", s.o.workload, e.query.Template, status, err, buf.Bytes(), e.want)
		got, err := s.decompose(nil, e)
		ck.check(err == nil && bytes.Equal(got, e.want),
			"%s: decomposition of template %d gives %s (err %v), server gave %s", s.o.workload, e.query.Template, got, err, e.want)
	}

	var total, hits, fallbacks, misses float64
	for i := range s.entries {
		n := float64(s.sent[i].Load())
		total += n
		if s.entries[i].path == spanMiss {
			misses += n
		} else {
			hits += n
		}
		if s.entries[i].fallback {
			fallbacks += n
		}
	}
	counters, err := s.scrape()
	ck.check(err == nil, "%s: GET /metrics: %v", s.o.workload, err)
	if err != nil {
		return
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{"serve.predict.requests", total},
		{"plancache.hit", hits},
		{"plancache.miss", misses},
		{"plancache.selector_fallback", fallbacks},
		{"serve.predict.errors_4xx", 0},
		{"serve.predict.errors_5xx", 0},
	} {
		got, ok := counters[c.name]
		ck.check(ok && sameBits(got, c.want), "%s: /metrics counter %s = %v (present %v), the benchmark counted %v", s.o.workload, c.name, got, ok, c.want)
	}
	s.errors4xx = counters["serve.predict.errors_4xx"]
	s.errors5xx = counters["serve.predict.errors_5xx"]
}

// scrape reads the counters of GET /metrics ("counter <name> <value>"
// lines).
func (s *serveSystem) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != "counter" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("counter %s: %w", f[1], err)
		}
		out[f[1]] = v
	}
	return out, sc.Err()
}

// probeOps bounds the per-call probes below.
const probeOps = 1000

func (s *serveSystem) probes(tr *tracer, m layerValues) error {
	if err := probeDatagen(tr, serveSF, s.o.seed, tpch.OperatorLevelTemplates, servePerTemplate); err != nil {
		return err
	}
	if err := probeTrainOps(tr, s.records); err != nil {
		return err
	}
	if err := probeMlearn(tr, s.records, m); err != nil {
		return err
	}

	// What one request costs the allocator, handler only: the recorder
	// and the request are reused, so every allocation counted is the
	// server's.
	req, body, rec, err := newPredictRequest()
	if err != nil {
		return err
	}
	before := readMem()
	for j := 0; j < probeOps; j++ {
		s.handle(s.order[j%len(s.order)], req, body, rec)
	}
	s.reqMem = memDelta(before, readMem())

	stmts := make([]*sql.SelectStmt, 0, probeOps)
	for j := 0; j < probeOps; j++ {
		e := &s.entries[s.order[j%len(s.order)]]
		if s.hot {
			id := tr.begin("plancache.canonicalize")
			_, _, err := plancache.Canonicalize(e.query.SQL)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		stmt, err := sql.Parse(e.query.SQL)
		if err != nil {
			return err
		}
		stmts = append(stmts, stmt)
	}
	if s.hot {
		// Replaying a recorded join order is what a rebind does inside
		// Cache.Plan; timed here on its own, per fresh draw.
		for _, stmt := range stmts {
			_, trace, err := opt.PlanTraced(s.db, stmt)
			if err != nil {
				return err
			}
			id := tr.begin("opt.replay")
			_, err = opt.PlanReplay(s.db, stmt, trace)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	} else {
		before = readMem()
		for _, stmt := range stmts {
			if _, err := opt.Plan(s.db, stmt); err != nil {
				return err
			}
		}
		s.planMallocs = memDelta(before, readMem()).mallocs / float64(len(stmts))
	}
	return s.scoreRelerr(tr)
}

// scoreRelerr is the paper's mean relative error of what was served:
// latency_sec against the virtual latency of actually executing the
// query, over the check draws.
func (s *serveSystem) scoreRelerr(tr *tracer) error {
	rng := rand.New(rand.NewSource(s.o.seed + 3000))
	prof := vclock.DefaultProfile()
	var act, pred []float64
	for _, i := range s.checkEntries() {
		e := &s.entries[i]
		var res serve.PredictResult
		if err := json.Unmarshal(e.want, &res); err != nil {
			return err
		}
		noise := rng.Int63()
		var rec *qpp.QueryRecord
		if err := tr.time("workload.runquery", func() (err error) {
			rec, err = workload.RunQuery(s.db, e.query, prof, noise, 0)
			return err
		}); err != nil {
			return fmt.Errorf("execute template %d: %w", e.query.Template, err)
		}
		act = append(act, rec.Time)
		pred = append(pred, res.LatencySec)
	}
	s.relerr = mlearn.MeanRelativeError(act, pred)
	return nil
}

func (s *serveSystem) layerMetrics(m layerValues, agg map[string]*spanStats, ref passResult) {
	m.set("catalog.analyze_share", analyzeShare(agg))
	m.set("opt.plan_mallocs", s.planMallocs)
	m.set("qpp.hybrid_plan_models", float64(s.snap.Hybrid.NumPlanModels()))
	m.set("plancache.heap_mb", s.cacheHeapMB)

	mix := s.mix()
	m.set("plancache.memo_share", mix[spanMemo])
	m.set("plancache.hit_share", 1-mix[spanMiss])
	m.set("plancache.fallback_share", mix[spanFallback])

	p50 := median(ref.lat)
	m.set("serve.p50_ms", p50*toMs)
	m.set("serve.rps", ratio(float64(len(ref.lat)), ref.wall))
	if h := agg["serve.handler"]; h != nil {
		m.set("serve.http_overhead_us", (p50-median(h.durs))*toUs)
		if ops := agg[opSpan]; ops != nil {
			m.set("trace.overhead_ratio", ratio(median(ops.durs), median(h.durs)))
		}
	}
	m.set("serve.mallocs_per_req", s.reqMem.mallocs/probeOps)
	m.set("serve.alloc_kb_per_req", s.reqMem.allocMB*1024/probeOps)
	m.set("serve.errors_4xx", s.errors4xx)
	m.set("serve.errors_5xx", s.errors5xx)
	m.set("relerr_mean", s.relerr)
}

// close stops the listener and waits for the serving goroutine.
func (s *serveSystem) close() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.httpSrv = nil
	return err
}
