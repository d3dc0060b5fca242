package exec

import (
	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/types"
)

// seqScan reads a heap table in storage order, charging sequential page
// reads at page boundaries and per-tuple CPU, and applies the node filter.
type seqScan struct {
	node     *plan.Node
	table    *storage.Table
	pos      int
	lastPage int64
	filter   compiledFilter
}

// Open implements iterator.
func (s *seqScan) Open(ctx *execCtx) error {
	s.pos = 0
	s.lastPage = -1
	s.filter = ctx.compileFilter(s.node.Filter)
	return nil
}

// Next implements iterator.
func (s *seqScan) Next(ctx *execCtx) (plan.Row, bool, error) {
	for s.pos < s.table.Rows.Len() {
		if pg := s.table.PageOf(s.pos); pg != s.lastPage {
			ctx.clock.ReadPage(s.table.Meta.Name, pg, true)
			s.node.Act.Pages++
			s.lastPage = pg
		}
		row := s.table.Rows.Row(s.pos)
		s.pos++
		ctx.clock.CPUTuples(1)
		if s.filter.eval(ctx, row) {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// ReScan implements iterator.
func (s *seqScan) ReScan(_ *execCtx, _ plan.Row) error {
	s.pos = 0
	s.lastPage = -1
	return nil
}

// Close implements iterator.
func (s *seqScan) Close() {}

// indexScan fetches rows through the table's primary-key index. It runs in
// one of three modes: constant-key lookup (keys known at plan time),
// parameterized lookup (keys from the enclosing nested loop's outer row),
// or a full ordered scan (for merge joins). Heap fetches are charged as
// random page reads, softened by the buffer cache.
type indexScan struct {
	node      *plan.Node
	table     *storage.Table
	index     *storage.Index
	matches   []int32 // row offsets, aliasing the index
	pos       int
	filter    compiledFilter
	lookupFns []evalFn      // compiled LookupExprs (or LookupConsts)
	keyBuf    []types.Value // reused evaluated-key buffer
}

// Open implements iterator.
func (s *indexScan) Open(ctx *execCtx) error {
	s.filter = ctx.compileFilter(s.node.Filter)
	switch {
	case len(s.node.LookupExprs()) > 0:
		s.lookupFns = ctx.compileScalars(s.node.LookupExprs())
	case len(s.node.LookupConsts()) > 0:
		s.lookupFns = ctx.compileScalars(s.node.LookupConsts())
	}
	s.keyBuf = ctx.mem.alloc(len(s.lookupFns))
	return s.reposition(ctx, nil)
}

func (s *indexScan) reposition(ctx *execCtx, outer plan.Row) error {
	s.pos = 0
	switch {
	case len(s.node.LookupExprs()) > 0:
		if outer == nil {
			// No outer row yet (plain Open before the loop starts); empty.
			s.matches = nil
			return nil
		}
		s.lookup(ctx, outer, true)
	case len(s.node.LookupConsts()) > 0:
		s.lookup(ctx, nil, false)
	default:
		// Full ordered scan.
		s.matches = s.index.Ordered()
	}
	return nil
}

// lookup evaluates the compiled key expressions over row (nil for
// constant keys) and probes the index. This runs once per rescan inside
// nested loops — the executor's hottest reposition path — so the key
// values go into a reused buffer and the index probe allocates nothing.
// nullAborts makes a NULL key column yield no matches without charging
// the index descent (parameterized lookups only — nulls never join).
func (s *indexScan) lookup(ctx *execCtx, row plan.Row, nullAborts bool) {
	s.keyBuf = s.keyBuf[:0]
	for _, fn := range s.lookupFns {
		v := fn(ctx.ectx, row)
		if nullAborts && v.IsNull() {
			s.matches = nil
			return
		}
		s.keyBuf = append(s.keyBuf, v)
	}
	if len(s.keyBuf) == len(s.index.Cols) {
		s.matches = s.index.Lookup(s.keyBuf)
	} else {
		s.matches = s.index.LookupPrefix(s.keyBuf[0])
	}
	// Charge the B-tree descent: the root/internal page (hot, so usually a
	// cache hit) plus the leaf page holding the first match.
	ctx.clock.ReadPage(s.index.Name, 0, false)
	leaf := int64(1)
	if len(s.matches) > 0 {
		leaf = 1 + int64(s.matches[0]/200)
	}
	ctx.clock.ReadPage(s.index.Name, leaf, false)
	s.node.Act.Pages += 2
}

// Next implements iterator.
func (s *indexScan) Next(ctx *execCtx) (plan.Row, bool, error) {
	for s.pos < len(s.matches) {
		rid := s.matches[s.pos]
		s.pos++
		pg := s.table.PageOf(int(rid))
		ctx.clock.ReadPage(s.table.Meta.Name, pg, false)
		s.node.Act.Pages++
		ctx.clock.CPUTuples(1)
		row := s.table.Rows.Row(int(rid))
		if s.filter.eval(ctx, row) {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// ReScan implements iterator.
func (s *indexScan) ReScan(ctx *execCtx, outer plan.Row) error {
	return s.reposition(ctx, outer)
}

// Close implements iterator.
func (s *indexScan) Close() {}
