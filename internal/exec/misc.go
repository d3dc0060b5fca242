package exec

import (
	"sort"

	"qpp/internal/plan"
	"qpp/internal/types"
)

// sortOp drains its child, sorts with actual comparison counting, and
// replays. Inputs larger than work_mem charge external-sort spill I/O.
type sortOp struct {
	node  *plan.Node
	child iterator
	rows  []plan.Row
	pos   int
	done  bool
}

// Open implements iterator.
func (s *sortOp) Open(ctx *execCtx) error {
	s.rows = presizeRows(ctx, s.node)
	s.pos = 0
	s.done = false
	return s.child.Open(ctx)
}

func (s *sortOp) drain(ctx *execCtx) error {
	s.done = true
	var bytes float64
	for {
		row, ok, err := s.child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.clock.CPUTuples(1)
		s.rows = append(s.rows, row)
		for _, v := range row {
			bytes += float64(v.Width())
		}
	}
	keys := s.node.SortKeys
	compares := 0
	sort.SliceStable(s.rows, func(i, j int) bool {
		compares++
		for _, k := range keys {
			a, b := s.rows[i][k.Col], s.rows[j][k.Col]
			if a.IsNull() || b.IsNull() {
				if a.IsNull() && b.IsNull() {
					continue
				}
				// NULLs last in ascending order, first in descending.
				return b.IsNull() != k.Desc
			}
			c := types.Compare(a, b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	ctx.clock.SortCompares(float64(compares) * float64(maxInt(1, len(keys))))
	if workBytes := float64(ctx.clock.WorkMemPages()) * 8192; bytes > workBytes {
		pages := bytes / 8192
		ctx.clock.SpillPages(pages) // external merge sort writes+reads runs
		s.node.Act.Pages += pages
	}
	ctx.clock.Barrier()
	return nil
}

// Next implements iterator.
func (s *sortOp) Next(ctx *execCtx) (plan.Row, bool, error) {
	if !s.done {
		if err := s.drain(ctx); err != nil {
			return nil, false, err
		}
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	ctx.clock.CPUTuples(1)
	return row, true, nil
}

// ReScan implements iterator.
func (s *sortOp) ReScan(_ *execCtx, _ plan.Row) error {
	s.pos = 0
	return nil
}

// Close implements iterator.
func (s *sortOp) Close() { s.child.Close() }

// materialize caches its child's output on first pass so nested-loop
// rescans replay from memory instead of re-executing the child — the
// operator the paper's start-time/run-time discussion (Section 3.2) and
// hybrid example (Figure 3) center on.
type materialize struct {
	node    *plan.Node
	child   iterator
	rows    []plan.Row
	pos     int
	filled  bool
	spilled float64 // pages written when the cache exceeds work_mem
}

// Open implements iterator.
func (m *materialize) Open(ctx *execCtx) error {
	m.rows = presizeRows(ctx, m.node)
	m.pos = 0
	m.filled = false
	m.spilled = 0
	return m.child.Open(ctx)
}

func (m *materialize) fill(ctx *execCtx) error {
	m.filled = true
	var bytes float64
	for {
		row, ok, err := m.child.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.clock.CPUTuples(1)
		m.rows = append(m.rows, row)
		for _, v := range row {
			bytes += float64(v.Width())
		}
	}
	if workBytes := float64(ctx.clock.WorkMemPages()) * 8192; bytes > workBytes {
		m.spilled = bytes / 8192
		ctx.clock.SpillPages(m.spilled)
		m.node.Act.Pages += m.spilled
	}
	ctx.clock.Barrier()
	return nil
}

// Next implements iterator.
func (m *materialize) Next(ctx *execCtx) (plan.Row, bool, error) {
	if !m.filled {
		if err := m.fill(ctx); err != nil {
			return nil, false, err
		}
	}
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	row := m.rows[m.pos]
	m.pos++
	ctx.clock.CPUTuples(1)
	return row, true, nil
}

// ReScan implements iterator. A materialized rescan replays the cache and
// never re-executes the child; spilled caches re-read their pages (cheap
// and usually buffered, but not free).
func (m *materialize) ReScan(ctx *execCtx, _ plan.Row) error {
	m.pos = 0
	if m.filled && m.spilled > 0 {
		for p := int64(0); float64(p) < m.spilled; p++ {
			ctx.clock.ReadPage("materialize", p, true)
		}
	}
	return nil
}

// Close implements iterator.
func (m *materialize) Close() { m.child.Close() }

// limit emits the first N rows of its child.
type limit struct {
	node    *plan.Node
	child   iterator
	emitted int
}

// Open implements iterator.
func (l *limit) Open(ctx *execCtx) error {
	l.emitted = 0
	return l.child.Open(ctx)
}

// Next implements iterator.
func (l *limit) Next(ctx *execCtx) (plan.Row, bool, error) {
	if l.emitted >= l.node.LimitN {
		return nil, false, nil
	}
	row, ok, err := l.child.Next(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	l.emitted++
	return row, true, nil
}

// ReScan implements iterator.
func (l *limit) ReScan(ctx *execCtx, outer plan.Row) error {
	l.emitted = 0
	return l.child.ReScan(ctx, outer)
}

// Close implements iterator.
func (l *limit) Close() { l.child.Close() }

// project evaluates the node's projection expressions (Result nodes) or
// forwards rows with an optional filter (Subquery Scan nodes). When the
// parent never retains rows (reuse), one output row is overwritten in
// place.
type project struct {
	node     *plan.Node
	child    iterator
	reuse    bool
	projFns  []evalFn
	projCost plan.ExprCost
	filter   compiledFilter
	out      plan.Row // reused output row when reuse is set
}

// Open implements iterator.
func (p *project) Open(ctx *execCtx) error {
	p.projCost = plan.ExprCost{}
	for _, e := range p.node.Projs {
		c := e.Cost()
		p.projCost.Ops += c.Ops
		p.projCost.NumericOps += c.NumericOps
	}
	p.projFns = ctx.compileScalars(p.node.Projs)
	p.filter = ctx.compileFilter(p.node.Filter)
	return p.child.Open(ctx)
}

// Next implements iterator.
func (p *project) Next(ctx *execCtx) (plan.Row, bool, error) {
	for {
		row, ok, err := p.child.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		if !p.filter.eval(ctx, row) {
			continue
		}
		if len(p.projFns) == 0 {
			ctx.clock.CPUTuples(1)
			return row, true, nil
		}
		ctx.clock.CPUOps(p.projCost.Ops, p.projCost.NumericOps)
		out := p.out
		if out == nil {
			out = ctx.rows.alloc(len(p.projFns))
		}
		for i, fn := range p.projFns {
			out[i] = fn(ctx.ectx, row)
		}
		if p.reuse {
			p.out = out
		}
		return out, true, nil
	}
}

// ReScan implements iterator.
func (p *project) ReScan(ctx *execCtx, outer plan.Row) error {
	return p.child.ReScan(ctx, outer)
}

// Close implements iterator.
func (p *project) Close() { p.child.Close() }

// presizeRows allocates a buffering operator's row slice from the
// optimizer's cardinality estimate. The capacity is clamped to what
// work_mem could hold at the estimated row width (an input past that
// point spills anyway, and append-regrowth is cheap next to spill I/O)
// and to a hard cap so a runaway estimate cannot reserve gigabytes.
func presizeRows(ctx *execCtx, n *plan.Node) []plan.Row {
	est := n.Est.Rows
	if est <= 0 {
		return nil
	}
	width := n.Est.Width
	if width <= 16 {
		width = 16
	}
	if memCap := float64(ctx.clock.WorkMemPages()) * 8192 / width; est > memCap {
		est = memCap
	}
	const hardCap = 1 << 20
	if est > hardCap {
		est = hardCap
	}
	if est < 1 {
		est = 1
	}
	return make([]plan.Row, 0, int(est))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
