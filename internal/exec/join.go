package exec

import (
	"qpp/internal/plan"
	"qpp/internal/types"
)

// joinKey evaluates the hash-key expressions of row into buf (reused by
// the caller across rows); a null in any key column yields ok=false
// (nulls never join).
func joinKey(ctx *execCtx, fns []evalFn, row plan.Row, buf []types.Value) ([]types.Value, bool) {
	buf = buf[:0]
	for _, fn := range fns {
		v := fn(ctx.ectx, row)
		if v.IsNull() {
			return buf, false
		}
		buf = append(buf, v)
	}
	return buf, true
}

// concatInto overwrites dst with a followed by b, reusing dst's backing
// array when it has capacity. Joins keep one scratch row and drop it
// (forcing a fresh arena row) whenever a concatenated row escapes to a
// parent that retains rows.
func concatInto(ctx *execCtx, dst, a, b plan.Row) plan.Row {
	n := len(a) + len(b)
	if cap(dst) < n {
		dst = ctx.rows.alloc(n)
	}
	dst = append(dst[:0], a...)
	return append(dst, b...)
}

// hashJoin implements inner, left-outer, semi, and anti hash joins. The
// right child (wrapped in a Hash node by the planner) is the build side.
//
// Build rows are kept in arrival order in rows; table maps each distinct
// key to an id, head[id] is that key's first row and next links the rest,
// so rows with one key are found in arrival order without a slice per key.
type hashJoin struct {
	node  *plan.Node
	left  iterator
	right iterator
	reuse bool // parent never retains emitted rows

	table      hashTable
	rows       []plan.Row
	next       []int32 // next build row with the same key, -1 at chain end
	head       []int32 // per key id: first row of its chain
	nullRight  plan.Row
	cur        plan.Row // current left row with pending matches
	curMatches []int32  // its build rows, join filter applied; reused
	curIdx     int
	keysL      []evalFn
	keysR      []evalFn
	filter     compiledFilter
	joinF      compiledFilter
	keyBuf     []types.Value // reused evaluated-key buffer
	scratch    plan.Row      // reused output row
	buildBytes float64
}

// Open implements iterator.
func (h *hashJoin) Open(ctx *execCtx) error {
	h.filter = ctx.compileFilter(h.node.Filter)
	h.joinF = ctx.compileFilter(h.node.JoinFilter)
	h.keysL = ctx.compileScalars(h.node.HashKeysL)
	h.keysR = ctx.compileScalars(h.node.HashKeysR)
	h.keyBuf = ctx.rows.alloc(len(h.keysR))
	h.nullRight = ctx.rows.alloc(len(h.node.Children[1].Cols))
	for i := range h.nullRight {
		h.nullRight[i] = types.Null
	}
	if err := h.left.Open(ctx); err != nil {
		return err
	}
	return h.build(ctx)
}

func (h *hashJoin) build(ctx *execCtx) error {
	n := startCap(h.node.Children[1].Est.Rows)
	h.table.init(len(h.keysR), n)
	h.rows = make([]plan.Row, 0, n)
	h.next = make([]int32, 0, n)
	h.head = make([]int32, 0, n)
	tail := make([]int32, 0, n) // per key id: last row of its chain so far
	h.buildBytes = 0
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	for {
		row, ok, err := h.right.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var hasKey bool
		h.keyBuf, hasKey = joinKey(ctx, h.keysR, row, h.keyBuf)
		if !hasKey {
			continue
		}
		ctx.clock.HashOps(1)
		r := int32(len(h.rows))
		h.rows = append(reserve(h.rows, 1), row)
		h.next = append(reserve(h.next, 1), -1)
		if id, added := h.table.insert(h.keyBuf); added {
			h.head = append(reserve(h.head, 1), r)
			tail = append(reserve(tail, 1), r)
		} else {
			h.next[tail[id]] = r
			tail[id] = r
		}
		for _, v := range row {
			h.buildBytes += float64(v.Width())
		}
	}
	// Spill batches when the build side exceeds work_mem, as a real hash
	// join would (charged as write+read of the overflow).
	workBytes := float64(ctx.clock.WorkMemPages()) * 8192
	if h.buildBytes > workBytes {
		overflowPages := (h.buildBytes - workBytes) / 8192
		ctx.clock.SpillPages(overflowPages)
		h.node.Act.Pages += overflowPages
	}
	ctx.clock.Barrier()
	return nil
}

// emitScratch hands the scratch-backed row out to the parent; when the
// parent retains rows, the scratch is dropped so the next concat
// allocates a fresh backing array.
func (h *hashJoin) emitScratch(out plan.Row) plan.Row {
	if h.reuse {
		h.scratch = out
	} else {
		h.scratch = nil
	}
	return out
}

// probe collects into curMatches the build rows whose key equals left's
// and that pass the join filter (semi/anti/left semantics decide match
// existence after it), in build order.
func (h *hashJoin) probe(ctx *execCtx, left plan.Row) {
	h.curMatches = h.curMatches[:0]
	var hasKey bool
	h.keyBuf, hasKey = joinKey(ctx, h.keysL, left, h.keyBuf)
	if !hasKey {
		return
	}
	id := h.table.find(h.keyBuf)
	if id < 0 {
		return
	}
	for r := h.head[id]; r >= 0; r = h.next[r] {
		if h.node.JoinFilter != nil {
			h.scratch = concatInto(ctx, h.scratch, left, h.rows[r])
			if !h.joinF.eval(ctx, h.scratch) {
				continue
			}
		}
		h.curMatches = append(h.curMatches, r)
	}
}

// Next implements iterator.
func (h *hashJoin) Next(ctx *execCtx) (plan.Row, bool, error) {
	for {
		// Emit pending matches of the current left row. curMatches have
		// already passed the join filter.
		for h.cur != nil && h.curIdx < len(h.curMatches) {
			right := h.rows[h.curMatches[h.curIdx]]
			h.curIdx++
			out := concatInto(ctx, h.scratch, h.cur, right)
			h.scratch = out
			ctx.clock.CPUTuples(1)
			if !h.filter.eval(ctx, out) {
				continue
			}
			return h.emitScratch(out), true, nil
		}
		h.cur = nil

		left, ok, err := h.left.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		ctx.clock.HashOps(1)
		h.probe(ctx, left)
		matched := len(h.curMatches) > 0
		switch h.node.JoinType {
		case plan.JoinSemi, plan.JoinAnti:
			if matched == (h.node.JoinType == plan.JoinSemi) {
				ctx.clock.CPUTuples(1)
				if h.filter.eval(ctx, left) {
					return left, true, nil
				}
			}
		case plan.JoinLeft:
			if !matched {
				out := concatInto(ctx, h.scratch, left, h.nullRight)
				h.scratch = out
				ctx.clock.CPUTuples(1)
				if h.filter.eval(ctx, out) {
					return h.emitScratch(out), true, nil
				}
				continue
			}
			h.cur, h.curIdx = left, 0
		default: // inner
			if matched {
				h.cur, h.curIdx = left, 0
			}
		}
	}
}

// ReScan implements iterator.
func (h *hashJoin) ReScan(ctx *execCtx, outer plan.Row) error {
	h.cur = nil
	// The hash table survives a rescan; only the probe side restarts.
	return h.left.ReScan(ctx, outer)
}

// Close implements iterator.
func (h *hashJoin) Close() {
	h.left.Close()
	h.right.Close()
	h.table = hashTable{}
	h.rows, h.next, h.head = nil, nil, nil
}

// nestedLoop joins by rescanning the inner side per outer row; the inner
// is typically a Materialize node or a parameterized index scan.
type nestedLoop struct {
	node       *plan.Node
	outer      iterator
	inner      iterator
	reuse      bool
	curOuter   plan.Row
	innerValid bool
	matched    bool
	nullInner  plan.Row
	joinF      compiledFilter
	filter     compiledFilter
	scratch    plan.Row
}

// Open implements iterator.
func (n *nestedLoop) Open(ctx *execCtx) error {
	n.joinF = ctx.compileFilter(n.node.JoinFilter)
	n.filter = ctx.compileFilter(n.node.Filter)
	n.nullInner = ctx.rows.alloc(len(n.node.Children[1].Cols))
	for i := range n.nullInner {
		n.nullInner[i] = types.Null
	}
	n.curOuter = nil
	n.innerValid = false
	if err := n.outer.Open(ctx); err != nil {
		return err
	}
	return n.inner.Open(ctx)
}

func (n *nestedLoop) emitScratch(out plan.Row) plan.Row {
	if n.reuse {
		n.scratch = out
	} else {
		n.scratch = nil
	}
	return out
}

// Next implements iterator.
func (n *nestedLoop) Next(ctx *execCtx) (plan.Row, bool, error) {
	for {
		if n.curOuter == nil {
			row, ok, err := n.outer.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, nil
			}
			n.curOuter = row
			n.matched = false
			if err := n.inner.ReScan(ctx, row); err != nil {
				return nil, false, err
			}
			n.innerValid = true
		}
		inner, ok, err := n.inner.Next(ctx)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			outerRow := n.curOuter
			wasMatched := n.matched
			n.curOuter = nil
			switch n.node.JoinType {
			case plan.JoinAnti:
				if !wasMatched {
					ctx.clock.CPUTuples(1)
					if n.filter.eval(ctx, outerRow) {
						return outerRow, true, nil
					}
				}
			case plan.JoinLeft:
				if !wasMatched {
					out := concatInto(ctx, n.scratch, outerRow, n.nullInner)
					n.scratch = out
					ctx.clock.CPUTuples(1)
					if n.filter.eval(ctx, out) {
						return n.emitScratch(out), true, nil
					}
				}
			}
			continue
		}
		out := concatInto(ctx, n.scratch, n.curOuter, inner)
		n.scratch = out
		ctx.clock.CPUTuples(1)
		if n.node.JoinFilter != nil && !n.joinF.eval(ctx, out) {
			continue
		}
		n.matched = true
		switch n.node.JoinType {
		case plan.JoinSemi:
			outerRow := n.curOuter
			n.curOuter = nil // advance after first match
			if n.filter.eval(ctx, outerRow) {
				return outerRow, true, nil
			}
		case plan.JoinAnti:
			n.curOuter = nil // disqualified; next outer row
		default:
			if n.filter.eval(ctx, out) {
				return n.emitScratch(out), true, nil
			}
		}
	}
}

// ReScan implements iterator.
func (n *nestedLoop) ReScan(ctx *execCtx, outer plan.Row) error {
	n.curOuter = nil
	return n.outer.ReScan(ctx, outer)
}

// Close implements iterator.
func (n *nestedLoop) Close() {
	n.outer.Close()
	n.inner.Close()
}

// mergeJoin joins two inputs sorted on their merge keys (inner join only;
// the planner only selects it for inner equi-joins over ordered inputs).
type mergeJoin struct {
	node  *plan.Node
	left  iterator
	right iterator
	reuse bool

	leftRow   plan.Row
	leftOK    bool
	rightRows []plan.Row // buffered right group with equal key
	rightNext plan.Row
	rightOK   bool
	groupIdx  int
	filter    compiledFilter
	joinF     compiledFilter
	scratch   plan.Row
}

// Open implements iterator.
func (m *mergeJoin) Open(ctx *execCtx) error {
	m.filter = ctx.compileFilter(m.node.Filter)
	m.joinF = ctx.compileFilter(m.node.JoinFilter)
	if err := m.left.Open(ctx); err != nil {
		return err
	}
	if err := m.right.Open(ctx); err != nil {
		return err
	}
	m.leftRow, m.leftOK = nil, false
	m.rightRows = nil
	m.rightNext, m.rightOK = nil, false
	var err error
	m.leftRow, m.leftOK, err = m.left.Next(ctx)
	if err != nil {
		return err
	}
	m.rightNext, m.rightOK, err = m.right.Next(ctx)
	return err
}

func (m *mergeJoin) cmpKeys(a, b plan.Row) int {
	for i := range m.node.MergeKeysL {
		va := a[m.node.MergeKeysL[i]]
		vb := b[m.node.MergeKeysR[i]]
		if va.IsNull() || vb.IsNull() {
			if va.IsNull() && vb.IsNull() {
				continue
			}
			if va.IsNull() {
				return 1
			}
			return -1
		}
		if c := types.Compare(va, vb); c != 0 {
			return c
		}
	}
	return 0
}

func (m *mergeJoin) emitScratch(out plan.Row) plan.Row {
	if m.reuse {
		m.scratch = out
	} else {
		m.scratch = nil
	}
	return out
}

// Next implements iterator.
func (m *mergeJoin) Next(ctx *execCtx) (plan.Row, bool, error) {
	for {
		// Emit pending pairs from the buffered right group.
		if m.groupIdx < len(m.rightRows) {
			right := m.rightRows[m.groupIdx]
			m.groupIdx++
			out := concatInto(ctx, m.scratch, m.leftRow, right)
			m.scratch = out
			ctx.clock.CPUTuples(1)
			if m.node.JoinFilter != nil && !m.joinF.eval(ctx, out) {
				continue
			}
			if !m.filter.eval(ctx, out) {
				continue
			}
			return m.emitScratch(out), true, nil
		}
		if !m.leftOK {
			return nil, false, nil
		}
		if len(m.rightRows) > 0 {
			// Advance left; if the key is unchanged, replay the group.
			prev := m.leftRow
			var err error
			m.leftRow, m.leftOK, err = m.left.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if m.leftOK && m.sameLeftKey(prev, m.leftRow) {
				m.groupIdx = 0
				continue
			}
			m.rightRows = nil
			continue
		}
		// Align the two sides.
		if !m.rightOK {
			return nil, false, nil
		}
		ctx.clock.CPUTuples(1)
		c := m.cmpKeys(m.leftRow, m.rightNext)
		switch {
		case c < 0:
			var err error
			m.leftRow, m.leftOK, err = m.left.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !m.leftOK {
				return nil, false, nil
			}
		case c > 0:
			var err error
			m.rightNext, m.rightOK, err = m.right.Next(ctx)
			if err != nil {
				return nil, false, err
			}
			if !m.rightOK {
				return nil, false, nil
			}
		default:
			// Buffer the full right group with this key.
			m.rightRows = m.rightRows[:0]
			first := m.rightNext
			m.rightRows = append(m.rightRows, first)
			for {
				var err error
				m.rightNext, m.rightOK, err = m.right.Next(ctx)
				if err != nil {
					return nil, false, err
				}
				if !m.rightOK || m.cmpKeys(m.leftRow, m.rightNext) != 0 {
					break
				}
				m.rightRows = append(m.rightRows, m.rightNext)
			}
			m.groupIdx = 0
		}
	}
}

func (m *mergeJoin) sameLeftKey(a, b plan.Row) bool {
	for _, k := range m.node.MergeKeysL {
		va, vb := a[k], b[k]
		if va.IsNull() || vb.IsNull() {
			return false
		}
		if types.Compare(va, vb) != 0 {
			return false
		}
	}
	return true
}

// ReScan implements iterator.
func (m *mergeJoin) ReScan(ctx *execCtx, outer plan.Row) error {
	if err := m.left.ReScan(ctx, outer); err != nil {
		return err
	}
	if err := m.right.ReScan(ctx, outer); err != nil {
		return err
	}
	m.rightRows = nil
	m.groupIdx = 0
	var err error
	m.leftRow, m.leftOK, err = m.left.Next(ctx)
	if err != nil {
		return err
	}
	m.rightNext, m.rightOK, err = m.right.Next(ctx)
	return err
}

// Close implements iterator.
func (m *mergeJoin) Close() {
	m.left.Close()
	m.right.Close()
}
