package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json in full; unknown keys are an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the driver and later issues read; the tables
// in main.go and layers.go are what the program prints. They must name
// the same workloads and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(b.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		def, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is not in the program", w.Name)
			continue
		}
		if def.why != w.Why {
			t.Errorf("workload %q: why differs from the program's:\n%s\n%s", w.Name, w.Why, def.why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if m := b.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the set-up metric is %+v", m)
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("per-layer", m.Name)
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, d.metricDef)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

func TestSpanMetricsReadTheirSpans(t *testing.T) {
	m := newLayerValues()
	m.fromSpans(map[string]*spanStats{"sql.parse": {durs: []float64{1e-6, 3e-6, 2e-6}}})
	if got := m["sql.parse_us"]; got != 2 {
		t.Errorf("sql.parse_us = %v, want the median 2", got)
	}
	if got := m["sql.parse_p99_us"]; got != 3 {
		t.Errorf("sql.parse_p99_us = %v, want 3", got)
	}
	if got := m["opt.plan_us"]; got != 0 {
		t.Errorf("a layer with no span reads %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	m.set("no.such_metric", 1)
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve_hot", "--trace", "2"},
		{"--no-such-flag"},
		{},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result: %s", args, out.String())
		}
	}
}
