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
	// side-by-side with the learned models; may be nil for snapshots
	// materialized before the baseline was saved.
	Baseline *qpp.CostModelBaseline
	// Cache is the parametric plan cache built from the training
	// workload (nil for disk-loaded snapshots: model files carry no
	// workload, so -models mode serves with cold planning only). Like
	// the models it is immutable once published — /reload swaps in a
	// freshly built cache with the same pointer swap.
	Cache *plancache.Cache
}

// Snapshot file names inside a model directory — the layout cmd/qpptrain
// writes with -out.
const (
	planLevelFile = "plan_level.json"
	hybridFile    = "hybrid.json"
	baselineFile  = "cost_baseline.json"
)

// LoadSnapshot restores a snapshot from a model directory. The version
// is a hash of the model file contents, so re-loading unchanged files
// yields the identical version (an idempotent /reload) and any edit
// yields a new one. A missing optional baseline file is tolerated; a
// corrupt or format-mismatched file is a loud error — the server must
// never serve predictions from a snapshot it only partly understood.
func LoadSnapshot(dir string) (*Snapshot, error) {
	planBytes, err := os.ReadFile(filepath.Join(dir, planLevelFile))
	if err != nil {
		return nil, fmt.Errorf("serve: load snapshot: %w", err)
	}
	hybridBytes, err := os.ReadFile(filepath.Join(dir, hybridFile))
	if err != nil {
		return nil, fmt.Errorf("serve: load snapshot: %w", err)
	}
	pl, err := qpp.LoadPlanLevel(bytes.NewReader(planBytes))
	if err != nil {
		return nil, fmt.Errorf("serve: load snapshot: %w", err)
	}
	hy, err := qpp.LoadHybrid(bytes.NewReader(hybridBytes))
	if err != nil {
		return nil, fmt.Errorf("serve: load snapshot: %w", err)
	}
	h := sha256.New()
	h.Write(planBytes)
	h.Write(hybridBytes)

	snap := &Snapshot{Plan: pl, Hybrid: hy}
	if baseBytes, err := os.ReadFile(filepath.Join(dir, baselineFile)); err == nil {
		base, err := qpp.LoadCostBaseline(bytes.NewReader(baseBytes))
		if err != nil {
			return nil, fmt.Errorf("serve: load snapshot: %w", err)
		}
		snap.Baseline = base
		h.Write(baseBytes)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: load snapshot: %w", err)
	}
	snap.Version = "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	return snap, nil
}

// SaveSnapshot materializes a snapshot into a model directory in the
// same layout LoadSnapshot reads (and qpptrain writes).
func SaveSnapshot(dir string, snap *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	save := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("serve: save snapshot: %w", err)
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("serve: save snapshot %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("serve: save snapshot %s: %w", name, err)
		}
		return nil
	}
	if err := save(planLevelFile, func(f *os.File) error { return snap.Plan.Save(f) }); err != nil {
		return err
	}
	if err := save(hybridFile, func(f *os.File) error { return snap.Hybrid.Save(f) }); err != nil {
		return err
	}
	if snap.Baseline != nil {
		if err := save(baselineFile, func(f *os.File) error { return snap.Baseline.Save(f) }); err != nil {
			return err
		}
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
