package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"qpp/internal/serve"
	"qpp/internal/tpch"
)

func testOptions(t *testing.T, workload string) options {
	t.Helper()
	return options{workload: workload, seed: 5, seconds: 0, tmp: filepath.Join(t.TempDir(), "tmp")}
}

func mustServe(t *testing.T, tr *tracer, hot bool) *serveSystem {
	t.Helper()
	name := "serve_cold"
	if hot {
		name = "serve_hot"
	}
	sys, err := setupServe(testOptions(t, name), tr, hot)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.(*serveSystem)
	t.Cleanup(func() {
		if err := s.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// The hot pool must be half exact-memo texts whatever the seed draws, or
// plancache.memo_share (and with it pass_s) would drift with the seed.
func TestHotPoolIsHalfMemoTexts(t *testing.T) {
	s := mustServe(t, nil, true)
	training, err := tpch.GenWorkload(tpch.OperatorLevelTemplates, servePerTemplate, s.o.seed+1)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, q := range training {
		distinct[q.SQL] = true
	}
	// Every training text is a key of the exact memo, and nothing else is.
	if got := s.snap.Cache.ExactLen(); got != len(distinct) {
		t.Fatalf("the cache memoizes %d texts, the training workload has %d distinct", got, len(distinct))
	}
	memoSlots := 0
	for _, i := range s.order {
		e := s.entries[i]
		if distinct[e.query.SQL] != (e.path == spanMemo) || distinct[e.query.SQL] == e.fresh {
			t.Fatalf("template %d: training text %v, path %s, fresh %v", e.query.Template, distinct[e.query.SQL], e.path, e.fresh)
		}
		if e.path == spanMemo {
			memoSlots++
		}
	}
	if len(s.order) != 2*len(tpch.OperatorLevelTemplates)*drawsPerTemplate || 2*memoSlots != len(s.order) {
		t.Errorf("%d of %d pool slots are memo texts, want exactly half of %d", memoSlots, len(s.order), 2*len(tpch.OperatorLevelTemplates)*drawsPerTemplate)
	}
	mix := s.mix()
	if mix[spanMemo] != 0.5 || mix[spanMiss] != 0 {
		t.Errorf("mix %v: want memo 0.5 and no miss", mix)
	}
	if s.passOps != hotPassCycles*len(s.order) {
		t.Errorf("a pass is %d requests, not %d whole cycles of %d", s.passOps, hotPassCycles, len(s.order))
	}

	p, err := s.pass()
	if err != nil || p.failed != 0 || len(p.lat) != s.passOps || p.tailName != "p99" {
		t.Fatalf("pass: err %v, %d failed of %d, tail is %s", err, p.failed, len(p.lat), p.tailName)
	}
	var errOut bytes.Buffer
	ck := &checker{log: &errOut}
	s.verify(ck)
	if ck.failed != 0 || ck.attempted < 2*checkDraws*len(tpch.OperatorLevelTemplates) {
		t.Errorf("verify: %d failed of %d\n%s", ck.failed, ck.attempted, errOut.String())
	}
}

// A wrong expectation must be counted, not shrugged off: corrupt one
// expected body and the pass and the checks must both fail.
func TestServeChecksCatchAWrongAnswer(t *testing.T) {
	s := mustServe(t, nil, false)
	if s.snap.Cache != nil {
		t.Fatal("the cold snapshot came back from disk with a plan cache")
	}
	for i := range s.entries {
		if s.entries[i].path != spanMiss {
			t.Fatalf("entry %d takes path %s without a cache", i, s.entries[i].path)
		}
	}
	if len(s.order) != len(tpch.Templates)*drawsPerTemplate {
		t.Errorf("cold pool has %d slots", len(s.order))
	}
	victim := s.checkEntries()[0]
	s.entries[victim].want = append([]byte(nil), s.entries[victim].want...)
	s.entries[victim].want[len(s.entries[victim].want)-2] ^= 1
	p, err := s.pass()
	if err != nil || p.failed != coldPassCycles {
		t.Errorf("pass with one corrupted expectation: err %v, %d failed, want %d (once per cycle)", err, p.failed, coldPassCycles)
	}
	var errOut bytes.Buffer
	ck := &checker{log: &errOut}
	s.verify(ck)
	if ck.failed != 2 {
		t.Errorf("verify with one corrupted expectation: %d failed, want 2 (repeat and decomposition)\n%s", ck.failed, errOut.String())
	}
}

// The traced run trains the snapshot step by step from outside; it must
// be the snapshot serve.TrainSnapshot builds, or the spans would time
// something the product does not do.
func TestStepwiseSnapshotMatchesTrainSnapshot(t *testing.T) {
	product := mustServe(t, nil, true)
	stepwise := mustServe(t, newTracer(), true)
	if len(product.entries) != len(stepwise.entries) {
		t.Fatalf("%d vs %d pool entries", len(product.entries), len(stepwise.entries))
	}
	for i := range product.entries {
		var a, b serve.PredictResult
		if err := json.Unmarshal(product.entries[i].want, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(stepwise.entries[i].want, &b); err != nil {
			t.Fatal(err)
		}
		a.ModelVersion, b.ModelVersion = "", ""
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) || product.entries[i].path != stepwise.entries[i].path {
			t.Fatalf("template %d: TrainSnapshot answers %s via %s, the stepwise snapshot %s via %s",
				product.entries[i].query.Template, ja, product.entries[i].path, jb, stepwise.entries[i].path)
		}
	}
}

func TestBatchExecPassAndDecomposition(t *testing.T) {
	tr := newTracer()
	sys, err := setupBatchExec(testOptions(t, "batch_exec"), tr)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.(*batchExec)
	n := len(tpch.Templates) * execPerTemplate
	p, err := b.pass()
	if err != nil || p.failed != 0 || len(p.lat) != n || p.tailName != "the mean at and beyond p95" {
		t.Fatalf("pass: err %v, %d failed of %d, tail is %s", err, p.failed, len(p.lat), p.tailName)
	}
	var errOut bytes.Buffer
	ck := &checker{log: &errOut}
	if err := b.tracedPass(tr, ck); err != nil {
		t.Fatal(err)
	}
	if ck.failed != 0 || ck.attempted != n {
		t.Fatalf("traced pass: %d failed of %d\n%s", ck.failed, ck.attempted, errOut.String())
	}
	agg := aggregate(tr.spans)
	for _, name := range []string{opSpan, "sql.parse", "opt.plan", "exec.run", "qpp.features"} {
		if agg[name] == nil || len(agg[name].durs) != n {
			t.Errorf("span %s: %+v, want %d", name, agg[name], n)
		}
	}
	if share := ratio(agg[opSpan].self, sum(agg[opSpan].durs)); share > 0.01 {
		t.Errorf("%.3f of the op time is in no child span", share)
	}
	// A pass that disagrees with the set-up's record is a failed op.
	b.ds.Records[3].Time *= 2
	p, err = b.pass()
	if err != nil || p.failed != 1 {
		t.Errorf("pass against a doctored record: err %v, %d failed, want 1", err, p.failed)
	}
}

// One whole traced run through the command line: every per-layer metric
// is printed, the checks pass, and the design's predictions hold.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("a full traced batch_train run takes about 8 s")
	}
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "batch_train", "--seed", "5", "--trace", "1", "--out", dir, "--tmp", filepath.Join(dir, "tmp")}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v (present %v)", d.name, m, ok)
		}
	}
	figs := 0.0
	for _, name := range []string{"experiments.fig6_s", "experiments.fig7_s", "experiments.fig8_s", "experiments.fig9_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
		figs += res.Metrics[name].Value
	}
	// exec must be absent from batch_train's timed part, training present.
	if v := res.Metrics["exec.run_ms"].Value; v != 0 {
		t.Errorf("exec.run_ms = %v on batch_train", v)
	}
	if v := res.Metrics["qpp.train_hybrid_s"].Value; v <= 0 {
		t.Errorf("qpp.train_hybrid_s = %v", v)
	}
	if v := res.Metrics["relerr_mean"].Value; v <= 0 || v > 10 {
		t.Errorf("relerr_mean = %v", v)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "batch_train-seed5.spans.json")); len(matches) != 1 {
		t.Error("no span dump written")
	}
}
