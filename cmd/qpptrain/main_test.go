package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"qpp/internal/serve"
	"qpp/internal/tpch"
)

// mreLines keeps the per-model result rows of a run's output.
func mreLines(out string) []string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "test MRE") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestOutIsAServableSnapshot: the directory -out writes is the one
// qppserve -models reads — it carries the cost baseline, so /predict on
// it reports the cost-model prediction beside the learned ones — and
// -load evaluates it to the same errors the training run printed.
func TestOutIsAServableSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	common := []string{"-sf", "0.004", "-per-template", "4", "-test-per-template", "2"}

	var trained bytes.Buffer
	if err := run(append(common, "-out", dir), &trained); err != nil {
		t.Fatal(err)
	}
	rows := mreLines(trained.String())
	if len(rows) != 3 || !strings.Contains(rows[0], "plan-level") ||
		!strings.Contains(rows[1], "hybrid(error-based)") || !strings.Contains(rows[2], "cost-model") {
		t.Fatalf("want plan-level, hybrid and cost-model rows, got:\n%s", trained.String())
	}

	var loaded bytes.Buffer
	if err := run(append(common, "-load", dir), &loaded); err != nil {
		t.Fatal(err)
	}
	reloaded := mreLines(loaded.String())
	if len(reloaded) != 3 {
		t.Fatalf("-load printed %d result rows, want 3:\n%s", len(reloaded), loaded.String())
	}
	for i := range rows {
		// The hybrid row is labelled by strategy when trained and
		// "materialized" when loaded; the error after the label must match.
		want := rows[i][strings.Index(rows[i], "test MRE"):]
		if got := reloaded[i][strings.Index(reloaded[i], "test MRE"):]; got != want {
			t.Errorf("row %d: -load printed %q, training printed %q", i, got, want)
		}
	}

	snap, err := serve.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Baseline == nil {
		t.Fatal("-out directory has no cost baseline")
	}
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.004, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"sql": "select count(*) from lineitem"})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	serve.New(db, snap, serve.Options{}).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("/predict: status %d: %s", w.Code, w.Body.String())
	}
	var res serve.PredictResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Predictions["cost-model"]; !ok {
		t.Fatalf("/predict on the -out directory has no cost-model entry: %v", res.Predictions)
	}
}
