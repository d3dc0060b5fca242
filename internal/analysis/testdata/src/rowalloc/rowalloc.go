// Package rowalloc exercises hotalloc's pooled-memory check, which fires in
// every function of the executor package (this fixture is loaded under
// that path): a []types.Value, and a slice of any element type the arena
// keeps free lists of, comes from the arena, not from make.
package rowalloc

import "qpp/internal/types"

// Row mirrors plan.Row: an alias, so both spellings are one type.
type Row = []types.Value

// group stands in for an operator's per-group record.
type group struct {
	keys  Row
	count int64
}

// scratch is the arena's free list of one element type; its own make of a
// []T is the pooled memory itself and is not matched.
type scratch[T any] struct{ free [][]T }

func (s *scratch[T]) get(n int) []T {
	if len(s.free) == 0 {
		return make([]T, 0, n)
	}
	x := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return x[:0]
}

type arena struct {
	free   []types.Value
	ids    scratch[int32]
	keys   scratch[[2]int64]
	groups scratch[group]
}

func (a *arena) alloc(n int) []types.Value {
	if n > len(a.free) {
		a.free = make([]types.Value, 8192) //qpplint:ignore hotalloc the arena's own chunk
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

type op struct {
	rows   *arena
	out    Row
	keys   []types.Value
	ids    []int32
	costs  []float64
	groups []group
}

// Next is a hot entry point, but the check does not depend on it.
func (o *op) Next(in Row) Row {
	o.out = make(Row, len(in))                   // want `make of a \[\]types.Value in the executor: row storage comes from the arena`
	o.keys = make([]types.Value, 0, len(in))     // want `make of a \[\]types.Value in the executor`
	o.keys = append([]types.Value(nil), in...)   // want `append of a \[\]types.Value in the executor`
	o.out = append(Row(nil), in...)              // want `append of a \[\]types.Value in the executor`
	o.out = o.rows.alloc(len(in))                // the sanctioned source
	o.keys = append(o.keys[:0], in...)           // reuse of an existing row: clean
	o.ids = make([]int32, len(in))               // want `make of a \[\]int32 in the executor: the arena keeps free lists of this element type`
	o.ids = o.rows.ids.get(len(in))              // the sanctioned source
	o.groups = append([]group(nil), o.groups...) // want `append of a \[\]group in the executor: the arena keeps free lists`
	o.costs = make([]float64, len(in))           // no free list of float64: not pooled
	return o.out
}

// build fills a join's chains in a loop, the shape the check exists for.
func (o *op) build(rows []Row) {
	for range rows {
		next := make([]int32, len(rows)) // want `make of a \[\]int32 in the executor`
		keys := make([][2]int64, 0, 8)   // want `make of a \[\]\[2\]int64 in the executor`
		_, _ = next, keys
	}
}

// run is reachable from no hot entry point and is checked all the same.
func run(rows []Row) []Row {
	out := make([]Row, 0, len(rows)) // no free list of rows in this fixture: not pooled
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat := make([]types.Value, total) // want `make of a \[\]types.Value in the executor`
	for _, r := range rows {
		n := copy(flat, r)
		out = append(out, flat[:n:n])
		flat = flat[n:]
	}
	return out
}
