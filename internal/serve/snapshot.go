package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"qpp/internal/plancache"
	"qpp/internal/qpp"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/workload"
)

// Snapshot is one immutable, atomically-swappable set of trained
// predictors. Once published to a Server it is never mutated: /reload
// builds a fresh Snapshot and swaps the pointer, so in-flight requests
// keep predicting from the snapshot they loaded at entry.
type Snapshot struct {
	// Version identifies the snapshot in every response: a content hash
	// for disk-loaded snapshots, a config string for in-process trained
	// ones. Two snapshots with equal Version are interchangeable by
	// construction (same bytes or same deterministic training config).
	Version string
	// Plan is the plan-level predictor (always present).
	Plan *qpp.PlanLevelPredictor
	// Hybrid is the Algorithm-1 predictor; its Ops field doubles as the
	// operator-level predictor exposed in per-model breakdowns.
	Hybrid *qpp.HybridPredictor
	// Baseline is the optimizer-cost strawman (Section 5.2), served
	// side-by-side with the learned models. Every saved snapshot has
	// one; an in-process snapshot built without one serves without it.
	Baseline *qpp.CostModelBaseline
	// Cache is the parametric plan cache built from the training
	// workload (nil for disk-loaded snapshots: model files carry no
	// workload, so -models mode serves with cold planning only). Like
	// the models it is immutable once published — /reload swaps in a
	// freshly built cache with the same pointer swap.
	Cache *plancache.Cache
}

// snapshotFile is the one file of a model directory, the layout
// cmd/qpptrain writes with -out.
const snapshotFile = "snapshot.json"

// LoadSnapshot restores a snapshot from a model directory. The version
// is a hash of the file's bytes, so re-loading an unchanged file yields
// the identical version (an idempotent /reload) and any edit yields a new
// one. A missing, corrupt or format-mismatched file is a loud error — the
// server must never serve predictions from a snapshot it only partly
// understood.
func LoadSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, fmt.Errorf("serve: load snapshot: %w", err)
	}
	pl, hy, base, err := qpp.LoadModels(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("serve: load snapshot: %w", err)
	}
	sum := sha256.Sum256(data)
	return &Snapshot{
		Version: "sha256:" + hex.EncodeToString(sum[:])[:16],
		Plan:    pl, Hybrid: hy, Baseline: base,
	}, nil
}

// SaveSnapshot materializes a snapshot into a model directory in the
// layout LoadSnapshot reads (and qpptrain writes). The document is
// written to a temporary file beside the old one and renamed over it, so
// a concurrent LoadSnapshot (a POST /reload) reads either the old
// snapshot or the new one, never a mix.
func SaveSnapshot(dir string, snap *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	f, err := os.CreateTemp(dir, snapshotFile+".*.tmp")
	if err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	err = qpp.SaveModels(f, snap.Plan, snap.Hybrid, snap.Baseline)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, snapshotFile))
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	return nil
}

// TrainConfig configures an in-process snapshot build: execute a TPC-H
// training workload on the virtual-clock engine and fit every served
// model. Deterministic — same config, same snapshot.
type TrainConfig struct {
	// ScaleFactor of the generated TPC-H database.
	ScaleFactor float64
	// Templates to train over (nil: the operator-level-friendly 14).
	Templates []int
	// PerTemplate is the number of instances per template.
	PerTemplate int
	// Seed drives data generation, parameters and noise.
	Seed int64
	// Strategy selects the hybrid plan-ordering strategy.
	Strategy qpp.Strategy
	// Parallelism is the workload execution worker count (<=0:
	// GOMAXPROCS).
	Parallelism int
}

// TrainSnapshot executes the training workload and fits the plan-level,
// hybrid (with embedded operator-level) and cost-baseline models. The
// returned database is the one the workload ran against; the server
// must plan incoming SQL against the same data and statistics the
// models were trained on.
func TrainSnapshot(cfg TrainConfig) (*Snapshot, *storage.Database, error) {
	templates := cfg.Templates
	if templates == nil {
		// Hybrid/operator-level training needs init-/sub-plan-free plans.
		templates = tpch.OperatorLevelTemplates
	}
	ds, err := workload.Build(workload.Config{
		ScaleFactor: cfg.ScaleFactor,
		Templates:   templates,
		PerTemplate: cfg.PerTemplate,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: train snapshot: %w", err)
	}
	pl, err := qpp.TrainPlanLevel(ds.Records, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("serve: train plan-level: %w", err)
	}
	hy, _, err := qpp.TrainHybrid(ds.Records, qpp.DefaultHybridConfig(cfg.Strategy))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: train hybrid: %w", err)
	}
	base, err := qpp.TrainCostBaseline(ds.Records)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: train baseline: %w", err)
	}
	sqls := make([]string, len(ds.Records))
	for i, rec := range ds.Records {
		sqls[i] = rec.SQL
	}
	cache, err := plancache.Build(ds.DB, sqls, plancache.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: build plan cache: %w", err)
	}
	snap := &Snapshot{
		Version: fmt.Sprintf("trained-sf%g-seed%d-n%d-%s",
			cfg.ScaleFactor, cfg.Seed, len(ds.Records), cfg.Strategy),
		Plan:     pl,
		Hybrid:   hy,
		Baseline: base,
		Cache:    cache,
	}
	return snap, ds.DB, nil
}
