// Package exec is the query executor: a Volcano-style iterator engine over
// the physical plans produced by the optimizer. Every operator charges its
// work (page reads, per-tuple CPU, hashing, sorting, spills) to a virtual
// device clock, and every plan node is wrapped in an instrumentation layer
// that records the paper's two timing observables — start-time (virtual
// time until the first output tuple) and run-time (total virtual time of
// the sub-plan rooted at the node) — plus actual row and page counts.
//
// Concurrency contract: Run never mutates the database (tables, indexes
// and statistics are read-only after load), so any number of queries may
// execute concurrently against one Database as long as each call gets its
// own plan tree and its own Clock. Run writes instrumentation into the
// plan nodes it is given, so a plan tree must not be shared between
// concurrent Runs — the workload layer plans each query privately.
package exec

import (
	"errors"
	"fmt"

	"qpp/internal/obs"
	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/types"
	"qpp/internal/vclock"
)

// ErrTimeout is returned when a query exceeds the virtual time limit,
// mirroring the paper's one-hour execution cap.
var ErrTimeout = errors.New("exec: query exceeded virtual time limit")

// Options configures a query execution.
type Options struct {
	// TimeLimit aborts the query when virtual time passes this many
	// seconds; zero means no limit.
	TimeLimit float64
	// Trace, when non-nil, collects one span per operator (vclock window,
	// exclusive I/O-vs-CPU attribution, cache and spill behaviour). The
	// trace must be bound to the same clock the query runs on. Tracing
	// never writes to the clock, so traced and untraced runs charge
	// identical virtual times.
	Trace *obs.Trace
	// Interpret disables expression compilation and evaluates every scalar
	// through the tree-walking Scalar.Eval interpreter. Compiled and
	// interpreted execution produce identical rows and identical virtual
	// times; this escape hatch exists for the differential tests and as a
	// debugging aid.
	Interpret bool
}

// Result is the outcome of a query execution.
type Result struct {
	Rows []plan.Row
	// Elapsed is the total virtual execution time in seconds.
	Elapsed float64
}

// execCtx carries shared execution state.
type execCtx struct {
	db    *storage.Database
	clock *vclock.Clock
	ectx  *plan.Ctx
	limit float64
	trace *obs.Trace
	// compiled caches one closure per Scalar node, so sub-plans — whose
	// iterator trees are rebuilt per invocation — compile each expression
	// once. The map is parked on the plan root's ExecCache between Runs, so
	// repeated executions of one plan tree skip compilation entirely. Nil
	// when Options.Interpret is set.
	compiled map[plan.Scalar]evalFn
	// mem is where every row and every growable array the operators create
	// comes from (arena.go).
	mem *queryArena
}

func (c *execCtx) overTime() bool {
	return c.limit > 0 && c.clock.Now() > c.limit
}

// iterator is the operator contract.
type iterator interface {
	// Open prepares the operator for its first scan.
	Open(*execCtx) error
	// Next produces the next row; ok=false signals exhaustion.
	Next(*execCtx) (row plan.Row, ok bool, err error)
	// ReScan resets the operator for another pass. outer carries the
	// current outer row for parameterized inner scans (nil otherwise).
	ReScan(ctx *execCtx, outer plan.Row) error
	// Close releases resources.
	Close()
}

// Run executes the plan rooted at root against db, charging clock.
// Per-node actuals are reset and then populated on root's tree, including
// init-plans and sub-plans.
func Run(db *storage.Database, root *plan.Node, clock *vclock.Clock, opts Options) (*Result, error) {
	root.Walk(func(n *plan.Node) { n.Act = plan.Actuals{} })

	ectx := &plan.Ctx{Params: make([]types.Value, root.NumParams())} //qpplint:ignore hotalloc parameter slots must start as NULLs: one small zeroed slice per Run
	mem := arenaPool.Get().(*queryArena)
	defer mem.recycle()
	ctx := &execCtx{db: db, clock: clock, ectx: ectx, limit: opts.TimeLimit, trace: opts.Trace, mem: mem}
	if !opts.Interpret {
		// Closures are pure functions of the plan tree, so they survive
		// across Runs on the root's ExecCache (plan trees are never shared
		// between concurrent Runs). Repeat executions — the workload layer's
		// steady state — compile nothing and allocate no cache. A plan
		// without sub-plans gets its root payload here, on its first Run.
		if root.Root == nil {
			root.Root = &plan.RootPayload{}
		}
		if cached, ok := root.Root.ExecCache.(map[plan.Scalar]evalFn); ok {
			ctx.compiled = cached
		} else {
			ctx.compiled = make(map[plan.Scalar]evalFn)
			root.Root.ExecCache = ctx.compiled
		}
	}

	// Correlated sub-plans are (re)executed on demand through this hook.
	ectx.RunSubPlan = func(idx int, args []types.Value) (types.Value, error) {
		if idx < 0 || idx >= len(root.SubPlans()) {
			return types.Null, fmt.Errorf("exec: no sub-plan %d", idx)
		}
		sp := root.Root.SubPlans[idx]
		for i, slot := range root.Root.SubPlanArgSlots[idx] {
			ectx.Params[slot] = args[i]
		}
		return runScalarPlan(ctx, sp)
	}

	// Init-plans run once, before the main tree.
	for i, ip := range root.InitPlans() {
		v, err := runScalarPlan(ctx, ip)
		if err != nil {
			return nil, fmt.Errorf("exec: init-plan %d: %w", i+1, err)
		}
		ectx.Params[root.Root.InitPlanSlots[i]] = v
	}

	it, err := build(ctx, root, false)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if err := it.Open(ctx); err != nil {
		return nil, err
	}
	var out []plan.Row
	for {
		row, ok, err := it.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	if ectx.Err != nil {
		return nil, ectx.Err
	}
	copyOut(out)
	return &Result{Rows: out, Elapsed: clock.Now()}, nil
}

// copyOut moves the result rows off the arena into one heap array, so
// nothing a caller holds aliases memory the next Run overwrites.
func copyOut(rows []plan.Row) {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat := make([]types.Value, total) //qpplint:ignore hotalloc Result.Rows outlive the arena
	for i, r := range rows {
		n := copy(flat, r)
		rows[i], flat = flat[:n:n], flat[n:]
	}
}

// runScalarPlan executes a sub-plan to completion and returns its single
// scalar output (NULL when it yields no rows). Instrumentation on the
// sub-plan's nodes accumulates across invocations. The result is a Value,
// copied before the deferred release runs, so every row and array the
// sub-plan took from the arena is dead on return and a sub-plan run 10⁴
// times reuses one stretch of chunks and one set of arrays.
func runScalarPlan(ctx *execCtx, p *plan.Node) (types.Value, error) {
	defer ctx.mem.release(ctx.mem.mark())
	// reuse stays false: the first row is held across the drain loop below.
	it, err := build(ctx, p, false)
	if err != nil {
		return types.Null, err
	}
	defer it.Close()
	if err := it.Open(ctx); err != nil {
		return types.Null, err
	}
	row, ok, err := it.Next(ctx)
	if err != nil {
		return types.Null, err
	}
	if !ok {
		return types.Null, nil
	}
	// Drain remaining rows (scalar sub-plans should yield at most one, but
	// aggregate-less correlated plans may not be limited).
	for {
		_, more, err := it.Next(ctx)
		if err != nil {
			return types.Null, err
		}
		if !more {
			break
		}
	}
	if len(row) == 0 {
		return types.Null, nil
	}
	return row[0], nil
}

// build constructs the iterator tree for a plan node, wrapping every
// operator in instrumentation. reuse tells the operator that its parent
// never retains an emitted row past the next call, so operators that
// allocate output rows (projections, joins) may overwrite one buffer in
// place. It is false at every root: Run and runScalarPlan both hold rows
// after the producing Next returns.
func build(ctx *execCtx, n *plan.Node, reuse bool) (iterator, error) {
	var inner iterator
	switch n.Op {
	case plan.OpSeqScan:
		t, ok := ctx.db.Table(n.Table)
		if !ok {
			return nil, fmt.Errorf("exec: unknown table %q", n.Table)
		}
		inner = &seqScan{node: n, table: t}
	case plan.OpIndexScan:
		t, ok := ctx.db.Table(n.Table)
		if !ok {
			return nil, fmt.Errorf("exec: unknown table %q", n.Table)
		}
		idx, ok := ctx.db.PrimaryIndex(n.Table)
		if !ok {
			return nil, fmt.Errorf("exec: table %q has no index", n.Table)
		}
		inner = &indexScan{node: n, table: t, index: idx}
	case plan.OpResult, plan.OpSubqueryScan:
		// A projecting node reads each child row exactly once; a pure filter
		// forwards the child's rows, so the parent's retention applies.
		childReuse := len(n.Projs()) > 0 || reuse
		child, err := build(ctx, n.Children[0], childReuse)
		if err != nil {
			return nil, err
		}
		inner = &project{node: n, child: child, reuse: reuse}
	case plan.OpLimit:
		child, err := build(ctx, n.Children[0], reuse)
		if err != nil {
			return nil, err
		}
		inner = &limit{node: n, child: child}
	case plan.OpSort:
		child, err := build(ctx, n.Children[0], false) // buffers its input
		if err != nil {
			return nil, err
		}
		inner = &sortOp{node: n, child: child}
	case plan.OpMaterialize:
		child, err := build(ctx, n.Children[0], false) // caches its input
		if err != nil {
			return nil, err
		}
		inner = &materialize{node: n, child: child}
	case plan.OpHash:
		child, err := build(ctx, n.Children[0], reuse)
		if err != nil {
			return nil, err
		}
		inner = &passthrough{node: n, child: child}
	case plan.OpHashJoin, plan.OpHashSemiJoin, plan.OpHashAntiJoin:
		// Build rows live in the hash table. Probe rows are safe to reuse
		// under the parent's retention contract: the join never re-reads the
		// current probe row after pulling the next one — matches drain
		// against a held row, and semi/anti forward the row itself, which
		// the parent is done with before the join advances — so the parent's
		// reuse flag propagates to the probe child.
		left, err := build(ctx, n.Children[0], reuse)
		if err != nil {
			return nil, err
		}
		right, err := build(ctx, n.Children[1], false)
		if err != nil {
			return nil, err
		}
		inner = &hashJoin{node: n, left: left, right: right, reuse: reuse}
	case plan.OpMergeJoin:
		// The current left row and the buffered right group both persist
		// across Next calls.
		left, err := build(ctx, n.Children[0], false)
		if err != nil {
			return nil, err
		}
		right, err := build(ctx, n.Children[1], false)
		if err != nil {
			return nil, err
		}
		inner = &mergeJoin{node: n, left: left, right: right, reuse: reuse}
	case plan.OpNestedLoop:
		// The outer row is held across the inner scan; inner rows are
		// consumed immediately by the concat.
		left, err := build(ctx, n.Children[0], false)
		if err != nil {
			return nil, err
		}
		right, err := build(ctx, n.Children[1], true)
		if err != nil {
			return nil, err
		}
		inner = &nestedLoop{node: n, outer: left, inner: right, reuse: reuse}
	case plan.OpHashAggregate, plan.OpGroupAgg, plan.OpAggregate:
		child, err := build(ctx, n.Children[0], true) // rows only accumulated
		if err != nil {
			return nil, err
		}
		inner = &aggregate{node: n, child: child}
	default:
		return nil, fmt.Errorf("exec: unsupported operator %q", n.Op)
	}
	return &instrumented{inner: inner, node: n}, nil
}

// instrumented measures inclusive virtual time, rows, and loops for one
// plan node. Because execution is single-threaded over one clock, the time
// consumed inside this operator's calls (including its children's work) is
// exactly the clock delta across the call. When a trace is attached, every
// call is additionally bracketed by span Enter/Exit so the obs layer can
// attribute each clock interval to exactly one operator; the span is keyed
// by the plan node, so sub-plan re-executions accumulate into one span.
type instrumented struct {
	inner    iterator
	node     *plan.Node
	span     *obs.Span
	acc      float64 // inclusive virtual time consumed so far
	firstSet bool
}

func (w *instrumented) settle(ctx *execCtx, t0 float64) {
	w.acc += ctx.clock.Now() - t0
	w.node.Act.RunTime = w.acc
}

// Open implements iterator.
func (w *instrumented) Open(ctx *execCtx) error {
	if ctx.trace != nil {
		w.span = ctx.trace.Enter(w.node)
	}
	t0 := ctx.clock.Now()
	w.node.Act.Executed = true
	w.node.Act.Loops++
	err := w.inner.Open(ctx)
	w.settle(ctx, t0)
	if ctx.trace != nil {
		ctx.trace.Exit()
	}
	return err
}

// Next implements iterator.
func (w *instrumented) Next(ctx *execCtx) (plan.Row, bool, error) {
	if ctx.overTime() {
		return nil, false, ErrTimeout
	}
	if ctx.ectx.Err != nil {
		return nil, false, ctx.ectx.Err
	}
	if ctx.trace != nil {
		w.span = ctx.trace.Enter(w.node)
	}
	t0 := ctx.clock.Now()
	row, ok, err := w.inner.Next(ctx)
	w.settle(ctx, t0)
	if ctx.trace != nil {
		ctx.trace.Exit()
	}
	if err != nil {
		return nil, false, err
	}
	if ok {
		w.node.Act.Rows++
		if !w.firstSet {
			w.node.Act.StartTime = w.acc
			w.firstSet = true
			if ctx.trace != nil {
				ctx.trace.MarkFirstRow(w.span)
			}
		}
	}
	return row, ok, nil
}

// ReScan implements iterator.
func (w *instrumented) ReScan(ctx *execCtx, outer plan.Row) error {
	if ctx.trace != nil {
		w.span = ctx.trace.Enter(w.node)
	}
	t0 := ctx.clock.Now()
	w.node.Act.Loops++
	err := w.inner.ReScan(ctx, outer)
	w.settle(ctx, t0)
	if ctx.trace != nil {
		ctx.trace.Exit()
	}
	return err
}

// Close implements iterator.
func (w *instrumented) Close() { w.inner.Close() }

// passthrough forwards its child unchanged; it exists so Hash nodes show
// up in instrumentation the way PostgreSQL displays them.
type passthrough struct {
	node  *plan.Node
	child iterator
}

// Open implements iterator.
func (p *passthrough) Open(ctx *execCtx) error { return p.child.Open(ctx) }

// Next implements iterator.
func (p *passthrough) Next(ctx *execCtx) (plan.Row, bool, error) { return p.child.Next(ctx) }

// ReScan implements iterator.
func (p *passthrough) ReScan(ctx *execCtx, outer plan.Row) error { return p.child.ReScan(ctx, outer) }

// Close implements iterator.
func (p *passthrough) Close() { p.child.Close() }
