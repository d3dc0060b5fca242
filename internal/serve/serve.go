// Package serve is the QPP-as-a-service layer: an embeddable HTTP
// server that answers latency predictions online, from trained model
// snapshots, under concurrent traffic.
//
// Endpoints:
//
//	POST /predict        {"sql": "..."} → predicted latency, per-model
//	                     breakdown, confidence, model version
//	POST /predict/batch  {"queries": [{"sql": ...}, ...]} → one result
//	                     per query, all from one snapshot
//	GET  /explain        ?sql=... | ?template=N[&seed=S] → the EXPLAIN
//	                     tree plus the Table-1 feature vector the models
//	                     consume (text/plain)
//	GET  /metrics        lock-free serving counters and latency
//	                     histograms rendered as an internal/obs registry
//	                     dump (text/plain)
//	GET  /healthz        liveness plus the current model version (JSON)
//	POST /reload         build/load a new snapshot from the configured
//	                     source and swap it in (JSON)
//
// Concurrency model: the model snapshot is a copy-on-write
// atomic.Pointer. The /predict read path performs zero lock
// acquisitions — one atomic pointer load picks the snapshot for the
// whole request (so a response can never mix two snapshots), and all
// metrics are lock-free atomics (internal/obs CCounter/CHist). /reload
// publishes a fresh immutable Snapshot with a single pointer swap;
// in-flight requests keep the snapshot they started with.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qpp/internal/obs"
	"qpp/internal/opt"
	"qpp/internal/plan"
	"qpp/internal/plancache"
	"qpp/internal/qpp"
	"qpp/internal/storage"
	"qpp/internal/tpch"
)

// Options configures a Server beyond its database and first snapshot.
type Options struct {
	// Margin widens the plan-level model's training feature range for
	// the confidence check (0: qpp.ApplicabilityMargin).
	Margin float64
	// Now returns monotonic seconds for request latency measurement
	// (nil: wall clock). Tests inject a deterministic clock so the
	// /metrics dump is byte-stable.
	Now func() float64
	// Reload produces the next snapshot for POST /reload (nil: the
	// endpoint answers 503).
	Reload func() (*Snapshot, error)
	// MaxBodyBytes caps request bodies (0: 1 MiB).
	MaxBodyBytes int64
	// MaxBatch caps /predict/batch sizes (0: 256).
	MaxBatch int
}

// endpointMetrics is the lock-free per-endpoint instrumentation. The
// dump names are rendered once at construction so no request or scrape
// path builds strings in a loop (the hotalloc discipline).
type endpointMetrics struct {
	requests obs.CCounter
	e4xx     obs.CCounter
	e5xx     obs.CCounter
	latency  *obs.CHist

	reqName, e4Name, e5Name, latName string
}

// initEndpoint wires one endpoint's histogram and dump names.
func initEndpoint(em *endpointMetrics, name string) {
	em.latency = obs.NewCHist()
	em.reqName = "serve." + name + ".requests"
	em.e4Name = "serve." + name + ".errors_4xx"
	em.e5Name = "serve." + name + ".errors_5xx"
	em.latName = "serve." + name + ".latency_sec"
}

// Server routes the serving endpoints over one database and an
// atomically-swappable model snapshot. It implements http.Handler.
type Server struct {
	db        *storage.Database
	snap      atomic.Pointer[Snapshot]
	publishes obs.CCounter
	reloads   obs.CCounter

	// Parametric plan-cache counters: hits (any cache-served plan),
	// misses (cold-planned: unknown signature, no cache in the snapshot,
	// or hit-path fallback), and selector fallbacks (cache-served but the
	// learned selector declined and the cost-based choice was used).
	cacheHits      obs.CCounter
	cacheMisses    obs.CCounter
	cacheFallbacks obs.CCounter

	now      func() float64
	reload   func() (*Snapshot, error)
	margin   float64
	maxBody  int64
	maxBatch int
	mux      *http.ServeMux

	mPredict, mBatch, mExplain, mMetrics, mHealth, mReload endpointMetrics
}

// New builds a Server over a planned-against database and its first
// snapshot. The database must be the one the snapshot's models were
// trained on — features are scale-dependent.
func New(db *storage.Database, snap *Snapshot, opts Options) *Server {
	s := &Server{
		db:       db,
		now:      opts.Now,
		reload:   opts.Reload,
		margin:   opts.Margin,
		maxBody:  opts.MaxBodyBytes,
		maxBatch: opts.MaxBatch,
		mux:      http.NewServeMux(),
	}
	if s.now == nil {
		start := time.Now()
		s.now = func() float64 { return time.Since(start).Seconds() }
	}
	if s.margin == 0 {
		s.margin = qpp.ApplicabilityMargin
	}
	if s.maxBody == 0 {
		s.maxBody = 1 << 20
	}
	if s.maxBatch == 0 {
		s.maxBatch = 256
	}
	initEndpoint(&s.mPredict, "predict")
	initEndpoint(&s.mBatch, "predict_batch")
	initEndpoint(&s.mExplain, "explain")
	initEndpoint(&s.mMetrics, "metrics")
	initEndpoint(&s.mHealth, "healthz")
	initEndpoint(&s.mReload, "reload")
	s.Publish(snap)
	s.mux.HandleFunc("/predict", s.wrap(&s.mPredict, s.handlePredict))
	s.mux.HandleFunc("/predict/batch", s.wrap(&s.mBatch, s.handleBatch))
	s.mux.HandleFunc("/explain", s.wrap(&s.mExplain, s.handleExplain))
	s.mux.HandleFunc("/metrics", s.wrap(&s.mMetrics, s.handleMetrics))
	s.mux.HandleFunc("/healthz", s.wrap(&s.mHealth, s.handleHealthz))
	s.mux.HandleFunc("/reload", s.wrap(&s.mReload, s.handleReload))
	return s
}

// endpoints lists every endpoint's metrics for scraping.
func (s *Server) endpoints() []*endpointMetrics {
	return []*endpointMetrics{&s.mPredict, &s.mBatch, &s.mExplain, &s.mMetrics, &s.mHealth, &s.mReload}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Publish atomically swaps in a new snapshot and returns the previous
// one. In-flight requests that already loaded the old pointer finish on
// it; requests that load after Publish see the new snapshot.
func (s *Server) Publish(snap *Snapshot) (old *Snapshot) {
	old = s.snap.Swap(snap)
	s.publishes.Inc()
	return old
}

// Current returns the snapshot new requests would use.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

// wrap instruments a status-returning handler with the endpoint's
// lock-free counters and latency histogram.
func (s *Server) wrap(em *endpointMetrics, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := s.now()
		em.requests.Inc()
		status := h(w, r)
		switch {
		case status >= 500:
			em.e5xx.Inc()
		case status >= 400:
			em.e4xx.Inc()
		}
		em.latency.Observe(s.now() - t0)
	}
}

// Wire formats.

// PredictRequest is the /predict request body (and one /predict/batch
// element).
type PredictRequest struct {
	SQL string `json:"sql"`
}

// Confidence qualifies a prediction: InRange reports whether the
// query's Table-1 feature vector lies inside the plan-level model's
// (margin-widened) training envelope, the paper's applicability check;
// TrainError is the model's cross-validated training MRE.
type Confidence struct {
	Level      string  `json:"level"` // "high" | "low"
	InRange    bool    `json:"in_range"`
	TrainError float64 `json:"train_error"`
}

// PredictResult is one query's prediction: the headline latency (the
// hybrid model when applicable, else plan-level), the per-model
// breakdown, and which models declined the plan.
type PredictResult struct {
	ModelVersion string             `json:"model_version"`
	LatencySec   float64            `json:"latency_sec"`
	Predictions  map[string]float64 `json:"predictions"`
	Skipped      map[string]string  `json:"skipped,omitempty"`
	Confidence   Confidence         `json:"confidence"`
}

// BatchRequest is the /predict/batch request body.
type BatchRequest struct {
	Queries []PredictRequest `json:"queries"`
}

// BatchItem is one /predict/batch element's outcome.
type BatchItem struct {
	Result *PredictResult `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// BatchResponse is the /predict/batch response body. Every item was
// predicted from the same snapshot.
type BatchResponse struct {
	ModelVersion string      `json:"model_version"`
	Results      []BatchItem `json:"results"`
}

// HealthResponse is the /healthz response body.
type HealthResponse struct {
	Status       string `json:"status"`
	ModelVersion string `json:"model_version"`
	PlanModels   int    `json:"plan_models"`
}

// ReloadResponse is the /reload response body.
type ReloadResponse struct {
	OldVersion string `json:"old_version"`
	NewVersion string `json:"new_version"`
}

// ErrorBody is the structured error payload of every non-2xx JSON
// response.
type ErrorBody struct {
	Error string `json:"error"`
}

// writeJSON renders v with a status code and returns the status for the
// metrics wrapper.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		// The response types hold nothing Marshal rejects but a
		// non-finite float, and predictOne lets none through; keep the
		// contract that every response has a body anyway.
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	return status
}

// writeError renders a structured error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	return writeJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// planSQL compiles SQL against the serving database, converting any
// planner panic on pathological input into an error: the handler
// contract is "never panic, answer 200 or a structured 4xx".
func planSQL(db *storage.Database, sql string) (node *plan.Node, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("internal plan error: %v", p)
		}
	}()
	return opt.PlanSQL(db, sql)
}

// planFor compiles one query through the snapshot's parametric plan
// cache when present (a hit skips parse and join-order search entirely),
// cold-planning otherwise. Counter accounting lives here so every
// predict path reports cache behaviour; panics convert to errors per the
// planSQL contract.
func (s *Server) planFor(snap *Snapshot, sqlText string) (node *plan.Node, err error) {
	if snap.Cache == nil {
		s.cacheMisses.Inc()
		return planSQL(s.db, sqlText)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("internal plan error: %v", p)
		}
	}()
	node, outcome, err := snap.Cache.Plan(sqlText)
	if err != nil {
		return nil, err
	}
	switch outcome {
	case plancache.OutcomeHit:
		s.cacheHits.Inc()
	case plancache.OutcomeHitFallback:
		s.cacheHits.Inc()
		s.cacheFallbacks.Inc()
	default:
		s.cacheMisses.Inc()
	}
	return node, nil
}

// errNotALatency is the Skipped reason of a model whose output is NaN,
// ±Inf or negative.
var errNotALatency = errors.New("non-finite or negative model output")

// predictOne plans one query and runs every model in the snapshot over
// it. The snapshot is passed in by the caller so one request (or one
// batch) observes exactly one snapshot.
func (s *Server) predictOne(snap *Snapshot, sql string) (*PredictResult, int, string) {
	if strings.TrimSpace(sql) == "" {
		return nil, http.StatusBadRequest, "empty sql"
	}
	node, err := s.planFor(snap, sql)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Sprintf("plan: %v", err)
	}
	rec := &qpp.QueryRecord{SQL: sql, Root: node}
	res := &PredictResult{
		ModelVersion: snap.Version,
		Predictions:  map[string]float64{},
	}
	// offer files one model's answer: under Predictions when it is a
	// latency (finite, non-negative), under Skipped with the reason
	// otherwise. A model far outside its training range can overflow or
	// diverge, and json.Marshal rejects NaN and ±Inf.
	offer := func(model string, v float64, err error) {
		if err == nil && !(v >= 0 && v <= math.MaxFloat64) {
			err = errNotALatency
		}
		if err == nil {
			res.Predictions[model] = v
			return
		}
		if res.Skipped == nil {
			res.Skipped = map[string]string{}
		}
		res.Skipped[model] = err.Error()
	}
	// One Table-1 vector serves the plan-level model and the confidence check.
	feats := qpp.PlanFeatures(node, snap.Plan.Mode)
	offer("plan-level", snap.Plan.Model.Predict(feats), nil)
	if snap.Baseline != nil {
		offer("cost-model", snap.Baseline.Predict(rec), nil)
	}
	op, err := snap.Hybrid.Ops.Predict(rec, qpp.ChildTimesPredicted)
	offer("operator-level", op, err)
	hy, err := snap.Hybrid.Predict(rec)
	offer("hybrid", hy, err)
	served := false
	for _, model := range [...]string{"hybrid", "plan-level", "operator-level"} {
		if res.LatencySec, served = res.Predictions[model]; served {
			break
		}
	}
	if !served {
		return nil, http.StatusUnprocessableEntity, "no model produced a finite, non-negative latency for this plan"
	}
	in := snap.Plan.Model.InRange(feats, s.margin)
	level := "low"
	if in {
		level = "high"
	}
	res.Confidence = Confidence{Level: level, InRange: in, TrainError: snap.Plan.Model.TrainError}
	return res, http.StatusOK, ""
}

// handlePredict serves POST /predict.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "use POST")
	}
	var req PredictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	snap := s.snap.Load()
	res, status, msg := s.predictOne(snap, req.SQL)
	if msg != "" {
		return writeError(w, status, "%s", msg)
	}
	return writeJSON(w, http.StatusOK, res)
}

// handleBatch serves POST /predict/batch. One snapshot load covers the
// whole batch: results are mutually consistent by construction.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "use POST")
	}
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(req.Queries) == 0 {
		return writeError(w, http.StatusBadRequest, "empty batch")
	}
	if len(req.Queries) > s.maxBatch {
		return writeError(w, http.StatusBadRequest, "batch of %d exceeds the %d-query cap", len(req.Queries), s.maxBatch)
	}
	snap := s.snap.Load()
	out := BatchResponse{
		ModelVersion: snap.Version,
		Results:      make([]BatchItem, len(req.Queries)),
	}
	for i := range req.Queries {
		res, _, msg := s.predictOne(snap, req.Queries[i].SQL)
		if msg != "" {
			out.Results[i].Error = msg
		} else {
			out.Results[i].Result = res
		}
	}
	return writeJSON(w, http.StatusOK, out)
}

// handleExplain serves GET /explain: the costed plan tree plus the
// Table-1 feature vector the plan-level models consume — the serving
// twin of cmd/qppexplain.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "use GET")
	}
	q := r.URL.Query()
	sql := q.Get("sql")
	if sql == "" {
		tmplStr := q.Get("template")
		if tmplStr == "" {
			return writeError(w, http.StatusBadRequest, "provide ?sql= or ?template=")
		}
		tmpl, err := strconv.Atoi(tmplStr)
		if err != nil {
			return writeError(w, http.StatusBadRequest, "bad template: %v", err)
		}
		seed := int64(42)
		if seedStr := q.Get("seed"); seedStr != "" {
			seed, err = strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return writeError(w, http.StatusBadRequest, "bad seed: %v", err)
			}
		}
		qs, err := tpch.GenWorkload([]int{tmpl}, 1, seed)
		if err != nil {
			return writeError(w, http.StatusBadRequest, "template: %v", err)
		}
		sql = qs[0].SQL
	}
	node, err := planSQL(s.db, sql)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "plan: %v", err)
	}
	snap := s.snap.Load()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "-- qppserve explain (model %s)\n-- sql:\n%s\n\n", snap.Version, sql)
	buf.WriteString(plan.Explain(node))
	buf.WriteString("\n-- plan features (Table 1):\n")
	names := qpp.PlanFeatureNames()
	feats := qpp.PlanFeatures(node, snap.Plan.Mode)
	for i, name := range names {
		//qpplint:ignore hotalloc explain is a human-facing debug endpoint; one Fprintf per feature row is fine
		fmt.Fprintf(&buf, "%-22s %g\n", name, feats[i])
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
	return http.StatusOK
}

// handleMetrics serves GET /metrics: the lock-free serving metrics
// snapshotted into an internal/obs registry and rendered with its
// canonical sorted text dump.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "use GET")
	}
	reg := obs.NewRegistry()
	for _, em := range s.endpoints() {
		reg.SetCounter(em.reqName, float64(em.requests.Load()))
		reg.SetCounter(em.e4Name, float64(em.e4xx.Load()))
		reg.SetCounter(em.e5Name, float64(em.e5xx.Load()))
		reg.MergeHist(em.latName, em.latency.Snapshot())
	}
	reg.SetCounter("serve.snapshot.publishes", float64(s.publishes.Load()))
	reg.SetCounter("serve.reloads", float64(s.reloads.Load()))
	reg.SetCounter("plancache.hit", float64(s.cacheHits.Load()))
	reg.SetCounter("plancache.miss", float64(s.cacheMisses.Load()))
	reg.SetCounter("plancache.selector_fallback", float64(s.cacheFallbacks.Load()))
	snap := s.snap.Load()
	reg.SetCounter("serve.snapshot.plan_models", float64(snap.Hybrid.NumPlanModels()))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := reg.WriteTo(w); err != nil {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "use GET")
	}
	snap := s.snap.Load()
	return writeJSON(w, http.StatusOK, HealthResponse{
		Status:       "ok",
		ModelVersion: snap.Version,
		PlanModels:   snap.Hybrid.NumPlanModels(),
	})
}

// handleReload serves POST /reload: obtain the next snapshot from the
// configured source and swap it in. In-flight predictions keep the old
// snapshot; only requests arriving after the swap see the new one.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "use POST")
	}
	if s.reload == nil {
		return writeError(w, http.StatusServiceUnavailable, "no reload source configured")
	}
	snap, err := s.reload()
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "reload: %v", err)
	}
	old := s.Publish(snap)
	s.reloads.Inc()
	return writeJSON(w, http.StatusOK, ReloadResponse{
		OldVersion: old.Version,
		NewVersion: snap.Version,
	})
}
