package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"qpp/internal/plan"
	"qpp/internal/qpp"
	"qpp/internal/workload"
)

// determinismConfig picks the scale for the parallel-replay regression
// test: the full QuickConfig normally, a reduced build under -short or
// the race detector (several-fold slowdown on this workload). The
// determinism contract being checked does not depend on scale.
func determinismConfig(t *testing.T) Config {
	if testing.Short() || raceEnabled {
		return Config{
			LargeSF:     0.003,
			SmallSF:     0.0015,
			PerTemplate: 4,
			Seed:        42,
			TimeLimit:   120,
			Folds:       3,
		}
	}
	return QuickConfig()
}

// flattenActuals collects every node of a record's plan (main tree,
// init-plans and sub-plans, pre-order) as (operator, instrumentation)
// pairs for lockstep comparison.
type nodeObs struct {
	Op  plan.OpType
	Act plan.Actuals
}

func flattenActuals(root *plan.Node) []nodeObs {
	var out []nodeObs
	root.Walk(func(n *plan.Node) {
		out = append(out, nodeObs{Op: n.Op, Act: n.Act})
	})
	return out
}

// requireDatasetsIdentical asserts ds is bit-identical to the serial
// reference: same records in the same order, identical SQL, latencies,
// per-operator timings, timeout accounting — and, when the obs layer is
// on, byte-identical merged metrics and per-query trace trees.
func requireDatasetsIdentical(t *testing.T, label string, ref, ds *workload.Dataset) {
	t.Helper()
	if (ds.Metrics == nil) != (ref.Metrics == nil) {
		t.Fatalf("%s: metrics presence differs from serial", label)
	}
	if ds.Metrics != nil {
		if got, want := ds.Metrics.String(), ref.Metrics.String(); got != want {
			t.Fatalf("%s: merged metrics dump diverges from serial:\n%s\nvs\n%s", label, got, want)
		}
	}
	if len(ds.Traces) != len(ref.Traces) {
		t.Fatalf("%s: %d traces, serial reference has %d", label, len(ds.Traces), len(ref.Traces))
	}
	for i := range ds.Traces {
		if got, want := ds.Traces[i].Tree(), ref.Traces[i].Tree(); got != want {
			t.Fatalf("%s: trace %d diverges from serial:\n%s\nvs\n%s", label, i, got, want)
		}
	}
	if len(ds.Records) != len(ref.Records) {
		t.Fatalf("%s: %d records, serial reference has %d", label, len(ds.Records), len(ref.Records))
	}
	if !reflect.DeepEqual(ds.TimedOut, ref.TimedOut) {
		t.Fatalf("%s: timeout accounting %v != serial %v", label, ds.TimedOut, ref.TimedOut)
	}
	for i, r := range ds.Records {
		want := ref.Records[i]
		if r.Template != want.Template || r.SQL != want.SQL {
			t.Fatalf("%s: record %d is query (t%d, %q), serial ran (t%d, %q)",
				label, i, r.Template, r.SQL, want.Template, want.SQL)
		}
		// Bit-identical latency, not approximately equal: the per-index
		// seeding scheme promises the exact same float64.
		if r.Time != want.Time {
			t.Fatalf("%s: record %d latency %v != serial %v", label, i, r.Time, want.Time)
		}
		got, ref := flattenActuals(r.Root), flattenActuals(want.Root)
		if len(got) != len(ref) {
			t.Fatalf("%s: record %d plan has %d nodes, serial %d", label, i, len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("%s: record %d node %d: %+v != serial %+v", label, i, j, got[j], ref[j])
			}
		}
	}
}

// TestParallelDeterminism is the regression test for the parallel
// execution layer's core guarantee: for a fixed seed, building the
// workload with 1, 2 or 8 workers yields bit-identical per-query
// latencies, operator timings, figure rows, span traces and merged
// metrics as the serial run.
func TestParallelDeterminism(t *testing.T) {
	cfg := determinismConfig(t)
	cfg.Observe = true // the obs layer is under the same replay guarantee

	cfg.Parallelism = 1 // serial reference
	ref, err := BuildEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refFig5, err := Fig5(ref)
	if err != nil {
		t.Fatal(err)
	}
	refFig6, err := Fig6(ref)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		cfg.Parallelism = workers
		env, err := BuildEnv(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireDatasetsIdentical(t, nameWorkers("large", workers), ref.Large, env.Large)
		requireDatasetsIdentical(t, nameWorkers("small", workers), ref.Small, env.Small)

		fig5, err := Fig5(env)
		if err != nil {
			t.Fatalf("workers=%d: fig5: %v", workers, err)
		}
		if !reflect.DeepEqual(fig5, refFig5) {
			t.Fatalf("workers=%d: fig5 rows diverge from serial:\n%+v\nvs\n%+v", workers, fig5, refFig5)
		}
		fig6, err := Fig6(env)
		if err != nil {
			t.Fatalf("workers=%d: fig6: %v", workers, err)
		}
		if !reflect.DeepEqual(fig6, refFig6) {
			t.Fatalf("workers=%d: fig6 rows diverge from serial:\n%+v\nvs\n%+v", workers, fig6, refFig6)
		}
		// The figure registries' text dumps are the asserted byte-level
		// contract (DeepEqual above already compares their internals).
		if got, want := fig5.Metrics.String(), refFig5.Metrics.String(); got != want {
			t.Fatalf("workers=%d: fig5 metrics dump diverges:\n%s\nvs\n%s", workers, got, want)
		}
		if got, want := fig6.Metrics.String(), refFig6.Metrics.String(); got != want {
			t.Fatalf("workers=%d: fig6 metrics dump diverges:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestTrainMemoDoesNotChangeFigures: the training memo only decides who
// trains a model, never what the model is. Figures 6 to 9 computed with a
// memo, at 1, 2 and 8 workers (where requesters of one model race for
// it), equal the serial figures computed with no memo at all, down to the
// registries' internals.
func TestTrainMemoDoesNotChangeFigures(t *testing.T) {
	cfg := determinismConfig(t)
	cfg.Observe = true
	cfg.Parallelism = 1
	env, err := BuildEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	figures := []struct {
		name string
		run  func(*Env, *qpp.TrainMemo) (any, error)
	}{
		{"fig6", func(e *Env, m *qpp.TrainMemo) (any, error) { return fig6(e, m) }},
		{"fig7", func(e *Env, m *qpp.TrainMemo) (any, error) { return fig7(e, m) }},
		{"fig8", func(e *Env, m *qpp.TrainMemo) (any, error) { return fig8(e, m) }},
		{"fig9", func(e *Env, m *qpp.TrainMemo) (any, error) { return fig9(e, m) }},
	}
	for _, fig := range figures {
		ref, err := fig.run(env, nil)
		if err != nil {
			t.Fatalf("%s, no memo, serial: %v", fig.name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			e := *env
			e.Cfg.Parallelism = workers
			for _, memo := range []*qpp.TrainMemo{new(qpp.TrainMemo), nil} {
				if memo == nil && workers == 1 {
					continue // the reference itself
				}
				got, err := fig.run(&e, memo)
				if err != nil {
					t.Fatalf("%s, memo=%v, workers=%d: %v", fig.name, memo != nil, workers, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s, memo=%v, workers=%d diverges from the memo-less serial run:\n%+v\nvs\n%+v",
						fig.name, memo != nil, workers, got, ref)
				}
			}
		}
	}
}

// TestObserveDoesNotPerturbExecution: turning the obs layer on must not
// change a single observable of the workload — same latencies, same
// per-operator actuals, same timeout accounting.
func TestObserveDoesNotPerturbExecution(t *testing.T) {
	base := workload.Config{
		ScaleFactor: 0.003,
		Templates:   []int{1, 3, 6, 14},
		PerTemplate: 3,
		Seed:        42,
		TimeLimit:   120,
		Parallelism: 1,
	}
	plain, err := workload.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	observed := base
	observed.Observe = true
	traced, err := workload.Build(observed)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != nil || traced.Metrics == nil {
		t.Fatal("Observe flag not reflected in the datasets")
	}
	if len(traced.Traces) != len(traced.Records) {
		t.Fatalf("%d traces for %d records", len(traced.Traces), len(traced.Records))
	}
	// The traced dataset must match the plain one bit for bit (ignore the
	// obs-only fields by comparing through the plain reference).
	traced.Traces, traced.Metrics = nil, nil
	tracedCfg := traced.Config
	traced.Config = plain.Config
	requireDatasetsIdentical(t, "observed build", plain, traced)
	if !tracedCfg.Observe {
		t.Fatal("config lost the Observe flag")
	}
}

func nameWorkers(ds string, workers int) string {
	return fmt.Sprintf("%s dataset, workers=%d", ds, workers)
}
