package opt

import (
	"encoding/binary"
	"fmt"

	"qpp/internal/plan"
	"qpp/internal/sql"
	"qpp/internal/storage"
)

// JoinStep records one binary merge chosen by the join-order search: the
// relation sets (bitmaps of relInfo ids) of the left and right inputs.
// The physical operator is NOT part of the step — replay re-runs the full
// bestJoin costing over the same inputs, so physical choice, key order,
// and every cost float are re-derived by exactly the code that produced
// them the first time.
type JoinStep struct {
	L uint64 `json:"l"`
	R uint64 `json:"r"`
}

// JoinTrace is the merge sequence of one full planning run: one block per
// orderJoins invocation, in planning order (the planner visits blocks and
// subqueries in a fixed structural order, so block alignment is stable
// across parameter bindings of the same template). A single-relation
// block records as an empty step list to keep the alignment explicit.
type JoinTrace struct {
	Blocks [][]JoinStep `json:"blocks"`
}

// Clone returns a deep copy.
func (t *JoinTrace) Clone() *JoinTrace {
	if t == nil {
		return nil
	}
	out := &JoinTrace{Blocks: make([][]JoinStep, len(t.Blocks))}
	for i, b := range t.Blocks {
		out.Blocks[i] = append([]JoinStep(nil), b...)
	}
	return out
}

// AppendKey renders the trace into buf as a canonical byte key (uvarint
// framing), suitable for deduplicating candidate plans without string
// formatting on a hot path.
func (t *JoinTrace) AppendKey(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.Blocks)))
	for _, b := range t.Blocks {
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		for _, s := range b {
			buf = binary.AppendUvarint(buf, s.L)
			buf = binary.AppendUvarint(buf, s.R)
		}
	}
	return buf
}

// Steps returns the total number of recorded merge steps.
func (t *JoinTrace) Steps() int {
	n := 0
	for _, b := range t.Blocks {
		n += len(b)
	}
	return n
}

// PlanTraced plans stmt exactly like Plan while recording the join-order
// merge trace of every query block. The returned trace replays through
// PlanReplay to skip the DP search on future statements with the same
// structure (different literals), producing bit-identical plans whenever
// a fresh search would pick the same join order.
func PlanTraced(db *storage.Database, stmt *sql.SelectStmt) (*plan.Node, *JoinTrace, error) {
	p := &planner{db: db, relByID: map[int]*relInfo{}, workMemPages: 256, rec: &JoinTrace{}}
	root, err := p.run(stmt)
	if err != nil {
		return nil, nil, err
	}
	return root, p.rec, nil
}

// PlanReplay plans stmt substituting the recorded merge sequence for the
// DP join-order search. Everything else — scan construction, physical
// join choice, selectivity math, aggregation strategy, costing — runs
// the ordinary planner code over the statement's actual literals, so the
// result is bit-identical to a fresh Plan whenever the fresh search
// would arrive at the recorded join order. A structural mismatch between
// stmt and the trace returns an error (callers fall back to cold
// planning); it never panics.
func PlanReplay(db *storage.Database, stmt *sql.SelectStmt, trace *JoinTrace) (*plan.Node, error) {
	p := &planner{db: db, relByID: map[int]*relInfo{}, workMemPages: 256, replay: trace}
	root, err := p.run(stmt)
	if err != nil {
		return nil, err
	}
	if p.replayIdx != len(trace.Blocks) {
		return nil, fmt.Errorf("opt: join trace mismatch: %d of %d blocks consumed", p.replayIdx, len(trace.Blocks))
	}
	return root, nil
}
