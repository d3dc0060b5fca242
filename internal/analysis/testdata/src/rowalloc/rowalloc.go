// Package rowalloc exercises hotalloc's row-storage check, which fires in
// every function of the executor package (this fixture is loaded under
// that path): a []types.Value comes from the arena, not from make.
package rowalloc

import "qpp/internal/types"

// Row mirrors plan.Row: an alias, so both spellings are one type.
type Row = []types.Value

type arena struct{ free []types.Value }

func (a *arena) alloc(n int) []types.Value {
	if n > len(a.free) {
		a.free = make([]types.Value, 8192) //qpplint:ignore hotalloc the arena's own chunk
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

type op struct {
	rows *arena
	out  Row
	keys []types.Value
	ids  []int32
}

// Next is a hot entry point, but the check does not depend on it.
func (o *op) Next(in Row) Row {
	o.out = make(Row, len(in))                 // want `make of a \[\]types.Value in the executor: row storage comes from the arena`
	o.keys = make([]types.Value, 0, len(in))   // want `make of a \[\]types.Value in the executor`
	o.keys = append([]types.Value(nil), in...) // want `append of a \[\]types.Value in the executor`
	o.out = append(Row(nil), in...)            // want `append of a \[\]types.Value in the executor`
	o.out = o.rows.alloc(len(in))              // the sanctioned source
	o.keys = append(o.keys[:0], in...)         // reuse of an existing row: clean
	o.ids = make([]int32, len(in))             // not row storage
	return o.out
}

// run is reachable from no hot entry point and is checked all the same.
func run(rows []Row) []Row {
	out := make([]Row, 0, len(rows)) // a slice of rows is not row storage
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
