package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qpp/internal/plancache"
	"qpp/internal/qpp"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

// Shared fixture: one executed workload, one serving database, and two
// distinct snapshots trained from different record subsets (so their
// predictions — not just their version strings — differ, which is what
// makes torn-snapshot detection in the race test meaningful).
var env struct {
	once         sync.Once
	db           *storage.Database
	recs         []*qpp.QueryRecord
	snapA, snapB *Snapshot
	err          error
}

func trainFromRecords(version string, recs []*qpp.QueryRecord) (*Snapshot, error) {
	pl, err := qpp.TrainPlanLevel(recs, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		return nil, err
	}
	hy, _, err := qpp.TrainHybrid(recs, qpp.DefaultHybridConfig(qpp.ErrorBased))
	if err != nil {
		return nil, err
	}
	base, err := qpp.TrainCostBaseline(recs)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Version: version, Plan: pl, Hybrid: hy, Baseline: base}, nil
}

func buildCache(db *storage.Database, recs []*qpp.QueryRecord) (*plancache.Cache, error) {
	sqls := make([]string, len(recs))
	for i, rec := range recs {
		sqls[i] = rec.SQL
	}
	return plancache.Build(db, sqls, plancache.Config{})
}

func testEnv(t testing.TB) (*storage.Database, *Snapshot, *Snapshot) {
	t.Helper()
	env.once.Do(func() {
		ds, err := workload.Build(workload.Config{
			ScaleFactor: 0.004,
			Templates:   []int{1, 3, 6, 10, 12, 14},
			PerTemplate: 6,
			Seed:        11,
		})
		if err != nil {
			env.err = err
			return
		}
		env.db = ds.DB
		env.recs = ds.Records
		if env.snapA, env.err = trainFromRecords("vA", ds.Records); env.err != nil {
			return
		}
		if env.snapB, env.err = trainFromRecords("vB", ds.Records[:len(ds.Records)-8]); env.err != nil {
			return
		}
		// Each snapshot carries its own plan cache built from its own
		// record subset, mirroring what /reload publishes: the swap-race
		// test must never observe snapshot A's models with snapshot B's
		// cache (or a half-built cache). B's cache covers fewer draws, so
		// the two caches are genuinely distinct objects.
		if env.snapA.Cache, env.err = buildCache(ds.DB, ds.Records); env.err != nil {
			return
		}
		env.snapB.Cache, env.err = buildCache(ds.DB, ds.Records[:len(ds.Records)-8])
	})
	if env.err != nil {
		t.Fatal(env.err)
	}
	return env.db, env.snapA, env.snapB
}

// fakeClock is a deterministic, concurrency-safe latency source: every
// call advances one millisecond.
type fakeClock struct{ n atomic.Int64 }

func (c *fakeClock) now() float64 { return float64(c.n.Add(1)) * 0.001 }

func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	db, snapA, _ := testEnv(t)
	if opts.Now == nil {
		opts.Now = (&fakeClock{}).now
	}
	return New(db, snapA, opts)
}

// templateSQL returns a deterministic instance of a TPC-H template.
func templateSQL(t testing.TB, tmpl int, seed int64) string {
	t.Helper()
	qs, err := tpch.GenWorkload([]int{tmpl}, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return qs[0].SQL
}

// do runs one in-process request against the server.
func do(s *Server, method, target, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func predictBody(t testing.TB, sql string) string {
	t.Helper()
	b, err := json.Marshal(PredictRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeResult(t testing.TB, w *httptest.ResponseRecorder) *PredictResult {
	t.Helper()
	var res PredictResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, w.Body.String())
	}
	return &res
}

func TestPredictHappyPath(t *testing.T) {
	s := newTestServer(t, Options{})
	sql := templateSQL(t, 3, 7)
	w := do(s, http.MethodPost, "/predict", predictBody(t, sql))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	res := decodeResult(t, w)
	if res.ModelVersion != "vA" {
		t.Fatalf("model version %q, want vA", res.ModelVersion)
	}
	for _, model := range []string{"plan-level", "operator-level", "hybrid", "cost-model"} {
		if _, ok := res.Predictions[model]; !ok {
			t.Fatalf("missing %s prediction: %v (skipped: %v)", model, res.Predictions, res.Skipped)
		}
	}
	if res.LatencySec != res.Predictions["hybrid"] {
		t.Fatalf("headline latency %g should be the hybrid prediction %g",
			res.LatencySec, res.Predictions["hybrid"])
	}
	if res.LatencySec <= 0 {
		t.Fatalf("nonpositive predicted latency %g", res.LatencySec)
	}
	if res.Confidence.Level != "high" && res.Confidence.Level != "low" {
		t.Fatalf("confidence level %q", res.Confidence.Level)
	}
	// A training-workload template instance must be inside the training
	// feature envelope.
	if !res.Confidence.InRange || res.Confidence.Level != "high" {
		t.Fatalf("training-distribution query should be in range: %+v", res.Confidence)
	}
	if res.Confidence.TrainError <= 0 {
		t.Fatalf("train error %g should be positive", res.Confidence.TrainError)
	}
}

// TestPredictSubqueryPlanSkipsCompositional: templates with init-/sub-
// plan structures fall back to plan-level-only prediction, reported in
// the skipped map rather than failing the request.
func TestPredictSubqueryPlanSkipsCompositional(t *testing.T) {
	s := newTestServer(t, Options{})
	sql := templateSQL(t, 2, 7) // Q2 carries a correlated subquery
	w := do(s, http.MethodPost, "/predict", predictBody(t, sql))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	res := decodeResult(t, w)
	if _, ok := res.Predictions["plan-level"]; !ok {
		t.Fatal("plan-level must always predict")
	}
	if _, ok := res.Skipped["hybrid"]; !ok {
		t.Fatalf("hybrid should be skipped for subquery plans, got %v", res.Skipped)
	}
	if res.LatencySec != res.Predictions["plan-level"] {
		t.Fatalf("headline should fall back to plan-level: %g vs %g",
			res.LatencySec, res.Predictions["plan-level"])
	}
}

func TestPredictErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name, method, body string
		wantStatus         int
		wantInError        string
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, "POST"},
		{"empty body", http.MethodPost, "", http.StatusBadRequest, "bad request body"},
		{"malformed json", http.MethodPost, "{", http.StatusBadRequest, "bad request body"},
		{"wrong type", http.MethodPost, `{"sql": 42}`, http.StatusBadRequest, "bad request body"},
		{"empty sql", http.MethodPost, `{"sql": ""}`, http.StatusBadRequest, "empty sql"},
		{"blank sql", http.MethodPost, `{"sql": "   "}`, http.StatusBadRequest, "empty sql"},
		{"parse error", http.MethodPost, `{"sql": "select from from"}`, http.StatusBadRequest, "plan"},
		{"unknown table", http.MethodPost, `{"sql": "select * from nope"}`, http.StatusBadRequest, "plan"},
		{"no such day", http.MethodPost, `{"sql": "select count(*) from orders where o_orderdate < date '1995-02-30'"}`, http.StatusBadRequest, "bad date"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, tc.method, "/predict", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d want %d: %s", w.Code, tc.wantStatus, w.Body.String())
			}
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not structured JSON: %s", w.Body.String())
			}
			if !strings.Contains(eb.Error, tc.wantInError) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.wantInError)
			}
		})
	}
}

// TestPredictManyWayJoinIsBounded: the join search is exponential in the
// relations of a block and capped (opt falls back to greedy merging above
// ten), so a short hostile body — twenty aliases of one table, 800 bytes —
// is answered like any other request instead of pinning a core behind
// nothing but the body cap. The deadline is the test's own: the server
// has none to rely on.
func TestPredictManyWayJoinIsBounded(t *testing.T) {
	s := newTestServer(t, Options{})
	var from, conj []string
	for i := 0; i < 20; i++ {
		from = append(from, fmt.Sprintf("orders o%d", i))
		if i > 0 {
			conj = append(conj, fmt.Sprintf("o0.o_orderkey = o%d.o_orderkey", i))
		}
	}
	body := predictBody(t, "select count(*) from "+strings.Join(from, ", ")+" where "+strings.Join(conj, " and "))
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- do(s, http.MethodPost, "/predict", body) }()
	select {
	case w := <-done:
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		if res := decodeResult(t, w); res.LatencySec <= 0 {
			t.Fatalf("nonpositive predicted latency %g", res.LatencySec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 20-way join was not answered within 5s")
	}
}

// crossJoinSQL is an n-way cross join of lineitem: a few hundred bytes
// whose estimated cost overflows float64 from roughly sixty relations up
// at the scale factors qppserve runs at.
func crossJoinSQL(n int) string {
	from := make([]string, n)
	for i := range from {
		from[i] = fmt.Sprintf("lineitem l%d", i)
	}
	return "select count(*) from " + strings.Join(from, ", ")
}

// constantPlanModel is a persisted plan-level model that answers value
// (exp(value) with logTarget) over no feature column.
func constantPlanModel(value float64, logTarget bool) string {
	zeros := "[" + strings.TrimSuffix(strings.Repeat("0,", qpp.NumPlanFeatures()), ",") + "]"
	return fmt.Sprintf(`{"cols": [], "model": {"constant": {"value": %g}}, "log_target": %t, "lo": %s, "hi": %s}`,
		value, logTarget, zeros, zeros)
}

// TestPredictNonFiniteOutputIsSkipped: a model that overflows on an
// off-manifold plan is reported under skipped, the request is still
// answered 200 from the models that stayed finite (it used to be a 500:
// json.Marshal rejects +Inf). The baseline's slope stands in for the
// larger scale factor at which the trained one overflows on this text.
func TestPredictNonFiniteOutputIsSkipped(t *testing.T) {
	db, snapA, _ := testEnv(t)
	snap := *snapA
	var err error
	_, _, snap.Baseline, err = qpp.LoadModels(strings.NewReader(fmt.Sprintf(
		`{"format": %d, "plan": %s, "slope": 1e308, "intercept": 0}`, qpp.FormatVersion, constantPlanModel(1, false))))
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, &snap, Options{Now: (&fakeClock{}).now})
	w := do(s, http.MethodPost, "/predict", predictBody(t, crossJoinSQL(62)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	res := decodeResult(t, w)
	if got := res.Skipped["cost-model"]; got != errNotALatency.Error() {
		t.Fatalf("cost-model skipped reason %q, want %q (predictions %v)", got, errNotALatency, res.Predictions)
	}
	if v, ok := res.Predictions["cost-model"]; ok {
		t.Fatalf("overflowed cost-model still listed as a prediction: %g", v)
	}
	if hy, ok := res.Predictions["hybrid"]; !ok || res.LatencySec != hy {
		t.Fatalf("headline %g should be the hybrid prediction: %v", res.LatencySec, res.Predictions)
	}
}

// TestPredictNoUsableModelIs422: when every model that could supply the
// headline latency diverges, the answer is a structured 422. The snapshot
// is what a corrupted model directory loads as: a log-target plan-level
// constant whose exp overflows, operator models with negative fallbacks.
func TestPredictNoUsableModelIs422(t *testing.T) {
	db, _, _ := testEnv(t)
	pl, hy, _, err := qpp.LoadModels(strings.NewReader(fmt.Sprintf(
		`{"format": %d, "plan": %s, "fallback_start": -1, "fallback_run": -1}`,
		qpp.FormatVersion, constantPlanModel(1000, true))))
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, &Snapshot{Version: "vBad", Plan: pl, Hybrid: hy}, Options{Now: (&fakeClock{}).now})
	w := do(s, http.MethodPost, "/predict", predictBody(t, templateSQL(t, 3, 7)))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", w.Code, w.Body.String())
	}
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "no model") {
		t.Fatalf("422 without a structured error body: %q", w.Body.String())
	}
}

func TestPredictBodyCap(t *testing.T) {
	s := newTestServer(t, Options{})
	// A valid request padded inside its object to exactly n bytes: the
	// decoder must read the last byte to finish the value.
	padded := func(n int) string {
		head := strings.TrimSuffix(predictBody(t, templateSQL(t, 6, 1)), "}")
		return head + strings.Repeat(" ", n-len(head)-1) + "}"
	}
	if w := do(s, http.MethodPost, "/predict", padded(bodyCap)); w.Code != http.StatusOK {
		t.Fatalf("body at the cap: status %d want 200: %s", w.Code, w.Body.String())
	}
	if w := do(s, http.MethodPost, "/predict", padded(bodyCap+1)); w.Code != http.StatusBadRequest {
		t.Fatalf("body one byte over the cap: status %d want 400", w.Code)
	}
}

func TestBatch(t *testing.T) {
	s := newTestServer(t, Options{})
	body, err := json.Marshal(BatchRequest{Queries: []PredictRequest{
		{SQL: templateSQL(t, 1, 3)},
		{SQL: "select broken"},
		{SQL: templateSQL(t, 6, 4)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w := do(s, http.MethodPost, "/predict/batch", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var res BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != "vA" {
		t.Fatalf("model version %q", res.ModelVersion)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results", len(res.Results))
	}
	if res.Results[0].Result == nil || res.Results[0].Error != "" {
		t.Fatalf("item 0 should succeed: %+v", res.Results[0])
	}
	if res.Results[1].Result != nil || res.Results[1].Error == "" {
		t.Fatalf("item 1 should fail: %+v", res.Results[1])
	}
	if res.Results[2].Result == nil {
		t.Fatalf("item 2 should succeed: %+v", res.Results[2])
	}
	// Whole-batch consistency: every successful item reports the batch's
	// snapshot version.
	for i, item := range res.Results {
		if item.Result != nil && item.Result.ModelVersion != res.ModelVersion {
			t.Fatalf("item %d version %q differs from batch %q", i, item.Result.ModelVersion, res.ModelVersion)
		}
	}
}

func TestBatchErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	batchOf := func(n int) string {
		return `{"queries": [` + strings.TrimSuffix(strings.Repeat(`{"sql":"a"},`, n), ",") + `]}`
	}
	for _, tc := range []struct {
		name, body string
		wantStatus int
	}{
		{"empty", `{"queries": []}`, http.StatusBadRequest},
		{"missing", `{}`, http.StatusBadRequest},
		{"at cap", batchOf(batchCap), http.StatusOK},
		{"over cap", batchOf(batchCap + 1), http.StatusBadRequest},
		{"malformed", `{"queries": `, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, http.MethodPost, "/predict/batch", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d want %d: %s", w.Code, tc.wantStatus, w.Body.String())
			}
		})
	}
	if w := do(s, http.MethodGet, "/predict/batch", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d want 405", w.Code)
	}
}

func TestExplain(t *testing.T) {
	s := newTestServer(t, Options{})
	w := do(s, http.MethodGet, "/explain?template=3&seed=42", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	body := w.Body.String()
	for _, want := range []string{"qppserve explain", "model vA", "-- plan features (Table 1):", "p_tot_cost"} {
		if !strings.Contains(body, want) {
			t.Fatalf("explain body missing %q:\n%s", want, body)
		}
	}

	// Ad-hoc SQL path.
	w = do(s, http.MethodGet, "/explain?sql="+
		"select+count%28%2A%29+from+lineitem", "")
	if w.Code != http.StatusOK {
		t.Fatalf("ad-hoc: status %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "lineitem") {
		t.Fatalf("ad-hoc explain should mention the scanned table:\n%s", w.Body.String())
	}

	for _, tc := range []struct{ name, target string }{
		{"no args", "/explain"},
		{"bad template", "/explain?template=x"},
		{"unknown template", "/explain?template=99"},
		{"bad seed", "/explain?template=3&seed=x"},
		{"bad sql", "/explain?sql=select+broken"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if w := do(s, http.MethodGet, tc.target, ""); w.Code != http.StatusBadRequest {
				t.Fatalf("status %d want 400: %s", w.Code, w.Body.String())
			}
		})
	}
	if w := do(s, http.MethodPost, "/explain", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d want 405", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	w := do(s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.ModelVersion != "vA" {
		t.Fatalf("health %+v", h)
	}
}

// TestMetricsEndpoint drives a scripted request mix and checks the
// scrape: counters must reflect exactly the requests made, and the
// latency histograms must have matching observation counts.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	sql := templateSQL(t, 1, 9)
	for i := 0; i < 3; i++ {
		if w := do(s, http.MethodPost, "/predict", predictBody(t, sql)); w.Code != http.StatusOK {
			t.Fatalf("predict %d: %d", i, w.Code)
		}
	}
	if w := do(s, http.MethodPost, "/predict", `{"sql":""}`); w.Code != http.StatusBadRequest {
		t.Fatal("expected a 4xx to count")
	}
	w := do(s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"counter serve.predict.requests 4",
		"counter serve.predict.errors_4xx 1",
		"counter serve.predict.errors_5xx 0",
		"counter serve.snapshot.publishes 1",
		"counter serve.reloads 0",
		"counter serve.snapshot.plan_models",
		"hist serve.predict.latency_sec count=4",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, body)
		}
	}
	if w := do(s, http.MethodPost, "/metrics", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST metrics: %d", w.Code)
	}
}

func TestReload(t *testing.T) {
	_, _, snapB := testEnv(t)
	var reloads int
	s := newTestServer(t, Options{
		Reload: func() (*Snapshot, error) {
			reloads++
			return snapB, nil
		},
	})
	sql := templateSQL(t, 6, 5)

	before := do(s, http.MethodPost, "/predict", predictBody(t, sql))
	w := do(s, http.MethodPost, "/reload", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", w.Code, w.Body.String())
	}
	var rr ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.OldVersion != "vA" || rr.NewVersion != "vB" {
		t.Fatalf("reload versions %+v", rr)
	}
	if reloads != 1 {
		t.Fatalf("reload source called %d times", reloads)
	}
	after := do(s, http.MethodPost, "/predict", predictBody(t, sql))
	if decodeResult(t, after).ModelVersion != "vB" {
		t.Fatal("requests after reload must see the new snapshot")
	}
	if before.Body.String() == after.Body.String() {
		t.Fatal("distinct snapshots should produce distinct responses")
	}
	if w := do(s, http.MethodGet, "/reload", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d", w.Code)
	}
}

func TestReloadWithoutSource(t *testing.T) {
	s := newTestServer(t, Options{})
	if w := do(s, http.MethodPost, "/reload", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d want 503", w.Code)
	}
}

func TestReloadError(t *testing.T) {
	s := newTestServer(t, Options{
		Reload: func() (*Snapshot, error) { return nil, fmt.Errorf("disk on fire") },
	})
	w := do(s, http.MethodPost, "/reload", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "disk on fire") {
		t.Fatalf("error body %s", w.Body.String())
	}
	// The failed reload must not have swapped anything.
	if s.Current().Version != "vA" {
		t.Fatal("failed reload changed the snapshot")
	}
}

// TestSnapshotRoundTrip saves a snapshot to disk, loads it twice, and
// checks (a) identical content hashes — the idempotent-reload identity —
// and (b) bit-identical predictions between the trained original and
// its materialized copy served over HTTP.
func TestSnapshotRoundTrip(t *testing.T) {
	db, snapA, _ := testEnv(t)
	dir := t.TempDir()
	if err := SaveSnapshot(dir, snapA); err != nil {
		t.Fatal(err)
	}
	l1, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Version != l2.Version {
		t.Fatalf("re-loading unchanged files changed the version: %q vs %q", l1.Version, l2.Version)
	}
	if !strings.HasPrefix(l1.Version, "sha256:") {
		t.Fatalf("loaded version %q should be a content hash", l1.Version)
	}
	if l1.Baseline == nil {
		t.Fatal("baseline file not round-tripped")
	}

	clock := &fakeClock{}
	sOrig := New(db, snapA, Options{Now: clock.now})
	sLoaded := New(db, l1, Options{Now: clock.now})
	sql := templateSQL(t, 12, 8)
	a := decodeResult(t, do(sOrig, http.MethodPost, "/predict", predictBody(t, sql)))
	b := decodeResult(t, do(sLoaded, http.MethodPost, "/predict", predictBody(t, sql)))
	for model, pa := range a.Predictions {
		if pb, ok := b.Predictions[model]; !ok || pa != pb {
			t.Fatalf("%s diverges after materialization: %v vs %v (ok=%v)", model, pa, pb, ok)
		}
	}
}

// TestLoadSnapshotFailsLoudly: a stale (format-mismatched), corrupt,
// truncated or missing snapshot file must abort the load with a loud
// error, never produce a half-loaded snapshot. A directory in the
// three-file layout earlier builds wrote is refused naming the file it
// lacks.
func TestLoadSnapshotFailsLoudly(t *testing.T) {
	_, snapA, _ := testEnv(t)
	dir := t.TempDir()
	if err := SaveSnapshot(dir, snapA); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`"format":%d`, qpp.FormatVersion)
	if !strings.Contains(string(data), current) {
		t.Fatalf("%s does not carry %s", snapshotFile, current)
	}
	load := func(body string) error {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSnapshot(dir)
		return err
	}
	// A pre-versioning file (0) and every earlier revision.
	for stale := 0; stale < qpp.FormatVersion; stale++ {
		old := strings.Replace(string(data), current, fmt.Sprintf(`"format":%d`, stale), 1)
		if err := load(old); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Fatalf("format %d must fail with a version error, got: %v", stale, err)
		}
	}
	if err := load(string(data)); err != nil {
		t.Fatalf("the restored file must load: %v", err)
	}
	if err := load("{toast"); err == nil {
		t.Fatal("corrupt snapshot must fail")
	}
	if err := load(string(data[:len(data)/2])); err == nil {
		t.Fatal("truncated snapshot must fail")
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plan_level.json", "hybrid.json", "cost_baseline.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadSnapshot(dir); err == nil || !strings.Contains(err.Error(), snapshotFile) {
		t.Fatalf("a directory without %s must fail naming it, got: %v", snapshotFile, err)
	}
}

func TestUnknownPath(t *testing.T) {
	s := newTestServer(t, Options{})
	if w := do(s, http.MethodGet, "/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("status %d want 404", w.Code)
	}
}
