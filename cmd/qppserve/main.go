// Command qppserve is the QPP-as-a-service daemon: it serves latency
// predictions from trained model snapshots over HTTP (see
// internal/serve for the endpoint contract).
//
// Two startup modes:
//
//	qppserve -models models/ -sf 0.01 -seed 42   # load a qpptrain -out dir
//	qppserve -sf 0.01 -per-template 20           # train in-process, then serve
//
// In -models mode the TPC-H database is regenerated deterministically
// from -sf and -seed, which must match the values the snapshot was
// trained with — plan features are scale-dependent, so serving a model
// against a mismatched database silently mispredicts.
//
// POST /reload re-reads the model directory (or retrains with the
// startup config) and atomically swaps the new snapshot in; in-flight
// predictions finish on the old one.
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"qpp/internal/qpp"
	"qpp/internal/serve"
	"qpp/internal/storage"
	"qpp/internal/tpch"
)

// buildSnapshot resolves the startup mode into a first snapshot, the
// database to plan against, and the /reload source.
func buildSnapshot(models string, cfg serve.TrainConfig) (*serve.Snapshot, *storage.Database, func() (*serve.Snapshot, error), error) {
	if models != "" {
		db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, nil, err
		}
		snap, err := serve.LoadSnapshot(models)
		if err != nil {
			return nil, nil, nil, err
		}
		reload := func() (*serve.Snapshot, error) { return serve.LoadSnapshot(models) }
		return snap, db, reload, nil
	}
	snap, db, err := serve.TrainSnapshot(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	reload := func() (*serve.Snapshot, error) {
		next, _, err := serve.TrainSnapshot(cfg)
		return next, err
	}
	return snap, db, reload, nil
}

func main() {
	addr := flag.String("addr", ":8099", "listen address")
	models := flag.String("models", "", "model directory to load (empty: train in-process at startup)")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (must match training when loading -models)")
	seed := flag.Int64("seed", 42, "generation seed (must match training when loading -models)")
	perTemplate := flag.Int("per-template", 20, "training queries per template (in-process training mode)")
	strategy := flag.String("strategy", "error", "hybrid strategy: error, size, frequency")
	par := flag.Int("parallel", 0, "training workload workers (0 = GOMAXPROCS)")
	flag.Parse()
	strat, err := qpp.ParseStrategy(*strategy)
	if err != nil {
		log.Fatalf("qppserve: %v", err)
	}

	cfg := serve.TrainConfig{
		ScaleFactor: *sf,
		PerTemplate: *perTemplate,
		Seed:        *seed,
		Strategy:    strat,
		Parallelism: *par,
	}
	if *models == "" {
		log.Printf("qppserve: training in-process (sf %g, %d per template, seed %d)...", *sf, *perTemplate, *seed)
	}
	snap, db, reload, err := buildSnapshot(*models, cfg)
	if err != nil {
		log.Fatalf("qppserve: %v", err)
	}
	s := serve.New(db, snap, serve.Options{Reload: reload})
	log.Printf("qppserve: serving model %s on %s", snap.Version, *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}
