// Command qpptrain is the offline model-building pipeline the paper
// describes in Section 1: execute a training workload, train prediction
// models, and materialize them to disk so later predictions need no
// retraining. With -load it restores materialized models and evaluates
// them on a freshly generated test workload.
//
// Usage:
//
//	qpptrain -sf 0.01 -per-template 20 -out models/         # train + save
//	qpptrain -sf 0.01 -load models/ -test-per-template 5    # load + evaluate
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"qpp/internal/prof"
	"qpp/internal/qpp"
	"qpp/internal/serve"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("qpptrain: %v", err)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("qpptrain", flag.ExitOnError)
	sf := fs.Float64("sf", 0.01, "TPC-H scale factor")
	perTemplate := fs.Int("per-template", 20, "training queries per template")
	testPerTemplate := fs.Int("test-per-template", 5, "test queries per template (evaluation)")
	seed := fs.Int64("seed", 42, "generation seed")
	out := fs.String("out", "", "directory to materialize trained models into")
	load := fs.String("load", "", "directory to load materialized models from (skips training)")
	strategy := fs.String("strategy", "error", "hybrid strategy: error, size, frequency")
	par := fs.Int("parallel", 0, "worker goroutines for workload execution (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopCPU()
	defer func() {
		if herr := prof.WriteHeap(*memProfile); err == nil {
			err = herr
		}
	}()

	var strat qpp.Strategy
	switch *strategy {
	case "size":
		strat = qpp.SizeBased
	case "frequency":
		strat = qpp.FrequencyBased
	default:
		strat = qpp.ErrorBased
	}

	var snap *serve.Snapshot
	hybridName := "hybrid(materialized)"
	if *load != "" {
		snap, err = serve.LoadSnapshot(*load)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded materialized models from %s (hybrid carries %d sub-plan models)\n",
			*load, snap.Hybrid.NumPlanModels())
	} else {
		fmt.Fprintf(stdout, "executing training workload (SF %v, %d per template) and training models...\n", *sf, *perTemplate)
		snap, _, err = serve.TrainSnapshot(serve.TrainConfig{
			ScaleFactor: *sf,
			PerTemplate: *perTemplate,
			Seed:        *seed,
			Strategy:    strat,
			Parallelism: *par,
		})
		if err != nil {
			return err
		}
		hybridName = fmt.Sprintf("hybrid(%s)", strat)
		if *out != "" {
			if err := serve.SaveSnapshot(*out, snap); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "materialized models into %s\n", *out)
		}
	}

	// Evaluate on a fresh workload (different parameters, same templates).
	fmt.Fprintf(stdout, "evaluating on a fresh workload (%d per template)...\n", *testPerTemplate)
	test, err := workload.Build(workload.Config{
		ScaleFactor: *sf,
		Templates:   tpch.OperatorLevelTemplates,
		PerTemplate: *testPerTemplate,
		Seed:        *seed + 100000,
		Parallelism: *par,
	})
	if err != nil {
		return err
	}
	type model struct {
		name    string
		predict func(*qpp.QueryRecord) (float64, error)
	}
	models := []model{
		{"plan-level", func(r *qpp.QueryRecord) (float64, error) { return snap.Plan.Predict(r), nil }},
		{hybridName, snap.Hybrid.Predict},
	}
	if snap.Baseline != nil { // nil for directories materialized before the baseline was saved
		models = append(models, model{"cost-model", func(r *qpp.QueryRecord) (float64, error) { return snap.Baseline.Predict(r), nil }})
	}
	for _, m := range models {
		mre, skipped, err := qpp.MeanRelativeError(test.Records, m.predict)
		if err != nil {
			return fmt.Errorf("evaluate %s: %w", m.name, err)
		}
		note := ""
		if skipped > 0 {
			note = fmt.Sprintf(" (%d skipped)", skipped)
		}
		fmt.Fprintf(stdout, "  %-22s test MRE %.1f%%%s\n", m.name, 100*mre, note)
	}
	return nil
}
