package qpp

import (
	"math"
	"sync"

	"qpp/internal/mlearn"
)

// TrainMemo lets one run of a training loop train each distinct model
// once. Algorithm 1, cross-validated figure drivers and the
// leave-one-template-out study ask TrainPlanModel (and, per operator
// type, TrainOperatorModels) for the same model again and again: the
// same feature rows, the same targets, the same configuration, to the
// bit. Training is a deterministic function of exactly those three, so
// the first model is the answer to every later request, and a trained
// model is never written again, so all requesters can hold the same one.
//
// A memo is found through PlanModelConfig.Memo. It belongs to the call
// that created it and must die with it: it has no size limit and no
// eviction, and a memo that outlived its call (kept in a long-lived
// struct or a package variable) would turn a second, identical run into
// pure hits, which is not what running the program once costs. The zero
// value is ready to use; a TrainMemo is safe for concurrent use and must
// not be copied after first use.
type TrainMemo struct {
	mu      sync.Mutex
	buckets map[uint64][]*memoEntry // guarded by mu

	// hash stands in for memoHash when set; tests force collisions with it.
	hash func(x *mlearn.Matrix, y []float64, cfg memoConfig) uint64
}

// memoConfig is what a trained model depends on besides its data: the
// feature-selection row floor and every field of the PlanModelConfig but
// the memo handle, floats by their bits.
type memoConfig struct {
	minRows          int
	kind             ModelKind
	featureSelection bool
	logTarget        bool
	folds            int
	seed             int64
	c, nu            uint64
}

func memoConfigOf(cfg PlanModelConfig, minRows int) memoConfig {
	return memoConfig{
		minRows:          minRows,
		kind:             cfg.Kind,
		featureSelection: cfg.FeatureSelection,
		logTarget:        cfg.LogTarget,
		folds:            cfg.Folds,
		seed:             cfg.Seed,
		c:                math.Float64bits(cfg.C),
		nu:               math.Float64bits(cfg.Nu),
	}
}

// memoEntry is one distinct training request and, once trained, its
// outcome. x and y are private copies: the key must not change when the
// requester reuses its buffers.
type memoEntry struct {
	cfg  memoConfig
	x    *mlearn.Matrix
	y    []float64
	once sync.Once
	pm   *PlanModel
	err  error
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (e *memoEntry) matches(x *mlearn.Matrix, y []float64, cfg memoConfig) bool {
	return e.cfg == cfg && e.x.Rows == x.Rows && e.x.Cols == x.Cols &&
		sameBits(e.y, y) && sameBits(e.x.Data, x.Data)
}

// memoHash hashes a request word by word. It only has to spread requests
// over buckets: a request shares a model only after matches has compared
// it bit for bit.
func memoHash(x *mlearn.Matrix, y []float64, cfg memoConfig) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	var flags uint64
	if cfg.featureSelection {
		flags |= 1
	}
	if cfg.logTarget {
		flags |= 2
	}
	for _, v := range [...]uint64{
		uint64(cfg.minRows), uint64(cfg.kind), flags, uint64(cfg.folds), uint64(cfg.seed), cfg.c, cfg.nu,
		uint64(x.Rows), uint64(x.Cols),
	} {
		mix(v)
	}
	for _, v := range y {
		mix(math.Float64bits(v))
	}
	for _, v := range x.Data {
		mix(math.Float64bits(v))
	}
	return h
}

// entry returns the memo's entry for the request, adding it if the memo
// has not seen the request before. The caller trains through the entry's
// once, so concurrent requests for one model train it once: the others
// wait for the first and share its result (or its error).
func (m *TrainMemo) entry(x *mlearn.Matrix, y []float64, key memoConfig) *memoEntry {
	hash := m.hash
	if hash == nil {
		hash = memoHash
	}
	h := hash(x, y, key)

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.buckets[h] {
		if e.matches(x, y, key) {
			return e
		}
	}
	e := &memoEntry{cfg: key, x: x.Clone(), y: append([]float64(nil), y...)}
	if m.buckets == nil {
		m.buckets = map[uint64][]*memoEntry{}
	}
	m.buckets[h] = append(m.buckets[h], e)
	return e
}

func (m *TrainMemo) model(x *mlearn.Matrix, y []float64, cfg PlanModelConfig, minRows int) (*PlanModel, error) {
	e := m.entry(x, y, memoConfigOf(cfg, minRows))
	e.once.Do(func() { e.pm, e.err = fitModel(e.x, e.y, cfg, minRows) })
	return e.pm, e.err
}
