package exec

import (
	"qpp/internal/plan"
	"qpp/internal/types"
)

// aggState accumulates one aggregate function over a group. The argument
// expression is compiled once per execution (arg/argCost live in the
// aggregate's state template and are copied into every group's states).
type aggState struct {
	spec    plan.AggSpec
	arg     evalFn
	argCost plan.ExprCost
	count   int64
	sum     float64
	sumIsI  bool
	sumI    int64
	minMax  types.Value
	seenAny bool
	seen    *hashTable // values already counted, for DISTINCT aggregates
}

func (a *aggState) update(ctx *execCtx, row plan.Row) {
	if a.arg == nil { // count(*)
		a.count++
		return
	}
	ctx.clock.CPUOps(a.argCost.Ops, a.argCost.NumericOps)
	v := a.arg(ctx.ectx, row)
	if v.IsNull() {
		return
	}
	if a.spec.Distinct {
		if a.seen == nil {
			a.seen = new(hashTable)
			a.seen.init(ctx.mem, 1, 4)
		}
		key := [1]types.Value{v}
		if _, added := a.seen.insert(key[:]); !added {
			return
		}
		ctx.clock.HashOps(1)
	}
	a.count++
	switch a.spec.Func {
	case plan.AggCount:
		// count only
	case plan.AggSum, plan.AggAvg:
		if v.Kind() == types.KindFloat {
			ctx.clock.CPUOps(0, 1) // software-numeric accumulation
		} else {
			ctx.clock.CPUOps(1, 0)
		}
		if a.sumIsI && v.Kind() == types.KindInt {
			a.sumI += v.I()
		} else {
			a.sumIsI = false
			a.sum += v.AsFloat()
		}
	case plan.AggMin:
		ctx.clock.CPUOps(1, 0)
		if !a.seenAny || types.Compare(v, a.minMax) < 0 {
			a.minMax = v
		}
	case plan.AggMax:
		ctx.clock.CPUOps(1, 0)
		if !a.seenAny || types.Compare(v, a.minMax) > 0 {
			a.minMax = v
		}
	}
	a.seenAny = true
}

func (a *aggState) result() types.Value {
	switch a.spec.Func {
	case plan.AggCount:
		return types.Int(a.count)
	case plan.AggSum:
		if !a.seenAny {
			return types.Null
		}
		if a.sumIsI {
			return types.Int(a.sumI)
		}
		return types.Float(a.sum + float64(a.sumI))
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.Float((a.sum + float64(a.sumI)) / float64(a.count))
	case plan.AggMin, plan.AggMax:
		if !a.seenAny {
			return types.Null
		}
		return a.minMax
	}
	return types.Null
}

// aggregate implements HashAggregate (hashed groups), GroupAggregate
// (input pre-sorted on the group keys), and plain Aggregate (no groups).
// Output rows are the group key values followed by the aggregate results;
// the node filter implements HAVING.
type aggregate struct {
	node  *plan.Node
	child iterator

	results    []plan.Row
	pos        int
	having     compiledFilter
	groupFns   []evalFn
	groupCols  []int // when every GROUP BY expr is a bare column: its ordinals
	groupCosts plan.ExprCost
	stateTmpl  []aggState    // per-execution template with compiled arguments
	valBuf     []types.Value // reused group-key values of the current row
	drained    bool

	// Hashed drains: table maps a group key to its index in groups, so
	// groups is in first-appearance order — the emission order.
	table  hashTable
	groups []aggGroup

	// Per-group states are carved out of fixed-capacity chunks from the
	// arena, so a large GROUP BY takes dozens of arrays instead of one per
	// group (the keys come from the arena's rows). Chunks are never regrown
	// in place (slices into them must stay valid); a full chunk is simply
	// replaced and stays out of the free lists until the query's release.
	// slabUsed counts the states the current drain carved.
	slabStates []aggState
	slabUsed   int
}

// Open implements iterator.
func (a *aggregate) Open(ctx *execCtx) error {
	a.having = ctx.compileFilter(a.node.Filter)
	a.groupFns = ctx.compileScalars(a.node.GroupBy())
	a.groupCols = a.groupCols[:0]
	for _, g := range a.node.GroupBy() {
		col, ok := g.(*plan.Col)
		if !ok {
			a.groupCols = nil
			break
		}
		a.groupCols = append(a.groupCols, col.Idx)
	}
	a.groupCosts = plan.ExprCost{}
	for _, g := range a.node.GroupBy() {
		a.groupCosts = plan.ExprCost{
			Ops:        a.groupCosts.Ops + g.Cost().Ops,
			NumericOps: a.groupCosts.NumericOps + g.Cost().NumericOps,
		}
	}
	a.stateTmpl = ctx.mem.states.get(len(a.node.Aggs()))[:len(a.node.Aggs())]
	for i, s := range a.node.Aggs() {
		st := aggState{spec: s, sumIsI: s.Arg != nil && s.Arg.Kind() == types.KindInt}
		if s.Arg != nil {
			st.arg = ctx.compileScalar(s.Arg)
			st.argCost = s.Arg.Cost()
		}
		a.stateTmpl[i] = st
	}
	a.valBuf = ctx.mem.alloc(len(a.node.GroupBy()))
	a.results, a.groups, a.table = nil, nil, hashTable{}
	a.slabStates, a.slabUsed = nil, 0
	a.pos = 0
	a.drained = false
	return a.child.Open(ctx)
}

// slabChunk is the number of groups the next slab chunk holds: as many as
// exist already, so chunks double and a four-group aggregate does not
// reserve a thousand-group chunk whatever the optimizer estimated.
func (a *aggregate) slabChunk() int {
	return min(max(len(a.groups), 16), 4096)
}

// newStates copies the compiled template into a fresh group accumulator
// carved from the state slab.
func (a *aggregate) newStates(ctx *execCtx) []aggState {
	n := len(a.stateTmpl)
	if n == 0 {
		return nil
	}
	if len(a.slabStates)+n > cap(a.slabStates) {
		a.slabStates = ctx.mem.states.get(a.slabChunk() * n)
	}
	lo := len(a.slabStates)
	a.slabStates = a.slabStates[:lo+n]
	a.slabUsed += n
	out := a.slabStates[lo : lo+n : lo+n] // capped: appends can't cross groups
	copy(out, a.stateTmpl)
	return out
}

// newGroup appends a group with fresh accumulators. The pointer is valid
// until the next newGroup.
func (a *aggregate) newGroup(ctx *execCtx, keys []types.Value) *aggGroup {
	a.groups = append(ctx.mem.groups.grow(a.groups, 1), aggGroup{keys: keys, states: a.newStates(ctx)})
	return &a.groups[len(a.groups)-1]
}

func (a *aggregate) drain(ctx *execCtx) error {
	a.drained = true
	if a.node.Op == plan.OpGroupAgg {
		return a.drainSorted(ctx)
	}
	return a.drainHashed(ctx)
}

// groupKey evaluates the group-by expressions for row into a.valBuf,
// which is reused across rows; callers copy it out only when a new group
// is created.
func (a *aggregate) groupKey(ctx *execCtx, row plan.Row) {
	ctx.clock.CPUOps(a.groupCosts.Ops, a.groupCosts.NumericOps)
	a.valBuf = a.valBuf[:0]
	if a.groupCols != nil { // all bare columns: skip the closure calls
		for _, idx := range a.groupCols {
			a.valBuf = append(a.valBuf, row[idx])
		}
		return
	}
	for _, g := range a.groupFns {
		a.valBuf = append(a.valBuf, g(ctx.ectx, row))
	}
}

// aggGroup is one hashed group's key values and accumulator states.
type aggGroup struct {
	keys   []types.Value
	states []aggState
}

// startHashed readies the group table for a hashed drain.
// A re-drain reuses the table and group array of the drain before it.
func (a *aggregate) startHashed(ctx *execCtx) {
	if a.groups != nil {
		a.table.reset()
		a.groups = a.groups[:0]
		return
	}
	n := startCap(a.node.Est.Rows)
	a.table.init(ctx.mem, len(a.node.GroupBy()), n)
	a.groups = ctx.mem.groups.get(n)
}

// lookupGroup finds or creates the group for the current row, charging
// the group-key evaluation and the hash probe.
func (a *aggregate) lookupGroup(ctx *execCtx, row plan.Row) *aggGroup {
	if len(a.node.GroupBy()) == 0 {
		if len(a.groups) == 0 {
			return a.newGroup(ctx, nil)
		}
		return &a.groups[0]
	}
	a.groupKey(ctx, row)
	ctx.clock.HashOps(1)
	id, added := a.table.insert(a.valBuf)
	if added {
		return a.newGroup(ctx, ctx.mem.copyOf(a.valBuf))
	}
	return &a.groups[id]
}

func (a *aggregate) drainHashed(ctx *execCtx) error {
	a.startHashed(ctx)
	for {
		row, ok, err := a.child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.clock.CPUTuples(1)
		g := a.lookupGroup(ctx, row)
		for i := range g.states {
			g.states[i].update(ctx, row)
		}
	}
	return a.finishHashed(ctx)
}

// finishHashed is the tail of the hashed drain: the empty-input single
// group, spill accounting, the pipeline barrier, and emission in
// first-appearance order into a result buffer presized to the group count.
func (a *aggregate) finishHashed(ctx *execCtx) error {
	// A query with no GROUP BY emits exactly one row even on empty input.
	if len(a.node.GroupBy()) == 0 && len(a.groups) == 0 {
		a.newGroup(ctx, nil)
	}
	// Spill accounting when the group table exceeds work_mem.
	cells := len(a.groups) * (len(a.node.GroupBy()) + len(a.stateTmpl))
	bytes := float64(cells) * 16
	if workBytes := float64(ctx.clock.WorkMemPages()) * 8192; bytes > workBytes {
		pages := (bytes - workBytes) / 8192
		ctx.clock.SpillPages(pages)
		a.node.Act.Pages += pages
	}
	ctx.clock.Barrier()
	if a.results == nil {
		a.results = ctx.mem.rows.get(len(a.groups))
	}
	for i := range a.groups {
		a.emit(ctx, a.groups[i].keys, a.groups[i].states)
	}
	return nil
}

// redrain readies a drained aggregate to recompute under a parameterized
// rescan on the arrays the last drain took — its result buffer, group
// array, hash table and state slab — rather than fresh ones, so an
// aggregate rescanned per outer row holds one set of arrays, not one per
// rescan. (Releasing to a mark is not an option here: between two drains
// the arena also hands out what must outlive the rescan, such as the
// table a child hash join keeps across rescans, or the rows a parent
// stores.) A drain whose states spilled over one slab chunk gets one
// chunk for them all, so the next drain of that size takes none.
func (a *aggregate) redrain(ctx *execCtx) {
	a.results = a.results[:0]
	if a.slabUsed > cap(a.slabStates) {
		a.slabStates = ctx.mem.states.get(a.slabUsed)
	}
	a.slabStates, a.slabUsed = a.slabStates[:0], 0
}

func (a *aggregate) drainSorted(ctx *execCtx) error {
	var curKeys []types.Value
	var states []aggState
	started := false
	for {
		row, ok, err := a.child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.clock.CPUTuples(1)
		a.groupKey(ctx, row)
		if !started || !sameKey(a.valBuf, curKeys) {
			if started {
				a.emit(ctx, curKeys, states)
			}
			curKeys = ctx.mem.copyOf(a.valBuf)
			states = a.newStates(ctx)
			started = true
		}
		for i := range states {
			states[i].update(ctx, row)
		}
	}
	if started {
		a.emit(ctx, curKeys, states)
	} else if len(a.node.GroupBy()) == 0 {
		a.emit(ctx, nil, a.newStates(ctx))
	}
	ctx.clock.Barrier()
	return nil
}

func (a *aggregate) emit(ctx *execCtx, keys []types.Value, states []aggState) {
	out := ctx.mem.alloc(len(keys) + len(states))[:0]
	out = append(out, keys...)
	for i := range states {
		out = append(out, states[i].result())
	}
	if a.having.eval(ctx, out) {
		a.results = append(ctx.mem.rows.grow(a.results, 1), out)
	}
}

// Next implements iterator.
func (a *aggregate) Next(ctx *execCtx) (plan.Row, bool, error) {
	if !a.drained {
		if err := a.drain(ctx); err != nil {
			return nil, false, err
		}
	}
	if a.pos >= len(a.results) {
		return nil, false, nil
	}
	row := a.results[a.pos]
	a.pos++
	ctx.clock.CPUTuples(1)
	return row, true, nil
}

// ReScan implements iterator.
func (a *aggregate) ReScan(ctx *execCtx, outer plan.Row) error {
	// Aggregates over parameterized children must recompute; otherwise the
	// buffered results can simply replay.
	if len(a.node.LookupExprs()) > 0 || outer != nil {
		if a.drained {
			a.redrain(ctx)
		}
		a.drained = false
		a.pos = 0
		return a.child.ReScan(ctx, outer)
	}
	a.pos = 0
	return nil
}

// Close implements iterator.
func (a *aggregate) Close() { a.child.Close() }
