package types

import "fmt"

// Rows is a set of rows of one width: a value array holding them row after
// row, the width, and the row count (kept of its own, so a set of
// zero-width rows still has a length). A row is an offset into the array,
// not a slice header of its own: Row(i) builds the view on demand.
//
// Rows is the one representation of a set of rows from the generator and
// the CSV reader through the loader, ANALYZE and the table itself. Its
// values are never written once it is built.
type Rows struct {
	vals []Value
	w, n int
}

// NewRows returns the rows of width w stored row after row in vals, which
// it keeps; it panics unless vals holds a whole number of rows. A width of
// zero holds no rows (RowsOf counts zero-width rows).
func NewRows(w int, vals []Value) Rows {
	if w < 0 || w == 0 && len(vals) > 0 || w > 0 && len(vals)%w != 0 {
		panic(fmt.Sprintf("types: %d values are not rows of width %d", len(vals), w))
	}
	if w == 0 {
		return Rows{}
	}
	return Rows{vals: vals, w: w, n: len(vals) / w}
}

// RowsOf copies rows, which must all have one width, into a new Rows; it
// panics on ragged input.
func RowsOf(rows ...[]Value) Rows {
	if len(rows) == 0 {
		return Rows{}
	}
	w := len(rows[0])
	vals := make([]Value, 0, w*len(rows))
	for i, r := range rows {
		if len(r) != w {
			panic(fmt.Sprintf("types: row %d has %d values, row 0 has %d", i, len(r), w))
		}
		vals = append(vals, r...)
	}
	return Rows{vals: vals, w: w, n: len(rows)}
}

// Len returns the number of rows.
func (r Rows) Len() int { return r.n }

// Width returns the number of values in each row.
func (r Rows) Width() int { return r.w }

// Row returns row i as a view of the value array with cap == len, so an
// append to it copies instead of overwriting row i+1.
func (r Rows) Row(i int) []Value {
	lo, hi := i*r.w, (i+1)*r.w
	return r.vals[lo:hi:hi]
}
