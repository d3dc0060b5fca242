// Package storage provides the in-memory row store behind the engine:
// heap tables with page accounting, primary-key indexes, and the database
// container tying tables to catalog metadata and statistics. Pages are a
// bookkeeping notion — rows live in memory, but every operator that touches
// a table reports the pages it would have read so the virtual device model
// can charge I/O the way a disk-resident system would experience it.
package storage

import (
	"fmt"
	"math"
	"sort"

	"qpp/internal/catalog"
	"qpp/internal/types"
)

// Row is one tuple.
type Row = []types.Value

// Table is an in-memory heap of rows plus page-layout accounting.
type Table struct {
	Meta *catalog.Table
	Rows []Row

	// RowsPerPage is how many tuples share one 8 KiB page given the table's
	// average row width; it maps a row offset to a page number.
	RowsPerPage int
	// Pages is the heap size in pages.
	Pages int64
}

// NewTable builds a table and computes its page layout.
func NewTable(meta *catalog.Table, rows []Row) *Table {
	t := &Table{Meta: meta, Rows: rows}
	var width float64
	sample := len(rows)
	if sample > 1000 {
		sample = 1000
	}
	for i := 0; i < sample; i++ {
		for _, v := range rows[i] {
			width += float64(v.Width())
		}
	}
	if sample > 0 {
		width /= float64(sample)
	}
	rpp := int(float64(catalog.PageSize) / (width + 24))
	if rpp < 1 {
		rpp = 1
	}
	t.RowsPerPage = rpp
	t.Pages = int64(len(rows)/rpp) + 1
	return t
}

// PageOf returns the page number holding the row at offset i.
func (t *Table) PageOf(i int) int64 { return int64(i / t.RowsPerPage) }

// Index is an ordered secondary structure over one or more columns: row
// offsets sorted by key, with an equality hash table on the full key for
// O(1) point lookups. It stands in for the B-tree primary-key indexes the
// TPC-H spec mandates.
//
// The equality table stores no keys of its own. Rows with equal keys are
// adjacent in ordered (in heap order, the sort being stable), so each slot
// holds only the position in ordered of a key's first row; a probe hashes
// the lookup values (types.HashKey), compares them with that row's columns
// (types.KeyEqual — integer keys, which is every TPC-H primary key, cost
// two integer compares) and returns the run of equal rows. Offsets and
// slots are int32: a table here is an in-memory slice of rows, far below
// 2^31 of them.
type Index struct {
	Name    string
	Table   *Table
	Cols    []int   // column ordinals, in key order
	ordered []int32 // row offsets sorted by key
	slots   []int32 // open addressing, position in ordered + 1; 0 = empty
	// LeafPages approximates the index size for the cost model.
	LeafPages int64
}

// BuildIndex constructs an index over the given column ordinals.
func BuildIndex(name string, t *Table, cols []int) *Index {
	if len(t.Rows) > math.MaxInt32 {
		panic(fmt.Sprintf("storage: table %q has %d rows, beyond the index's int32 offsets", t.Meta.Name, len(t.Rows)))
	}
	idx := &Index{Name: name, Table: t, Cols: cols}
	idx.ordered = make([]int32, len(t.Rows))
	for i := range t.Rows {
		idx.ordered[i] = int32(i)
	}
	sort.SliceStable(idx.ordered, func(a, b int) bool {
		return idx.compareRows(idx.ordered[a], idx.ordered[b]) < 0
	})
	// Load ≤ ½. A key with a NULL column equals no lookup, so its rows
	// stay out of the table (they sort last and are reachable by scan).
	size := 8
	for size < 2*len(t.Rows) {
		size *= 2
	}
	idx.slots = make([]int32, size)
	mask := uint32(size - 1)
	key := make([]types.Value, len(cols))
	for pos, off := range idx.ordered {
		if pos > 0 && idx.compareRows(idx.ordered[pos-1], off) == 0 {
			continue // not the first row of its key
		}
		for i, c := range cols {
			key[i] = t.Rows[off][c]
		}
		h, ok := hashKey(key)
		if !ok {
			continue
		}
		s := uint32(h) & mask
		for idx.slots[s] != 0 {
			s = (s + 1) & mask
		}
		idx.slots[s] = int32(pos) + 1
	}
	// ~200 key entries per 8 KiB leaf page, a B-tree-like density.
	idx.LeafPages = int64(len(t.Rows)/200) + 1
	return idx
}

func (idx *Index) compareRows(a, b int32) int {
	ra, rb := idx.Table.Rows[a], idx.Table.Rows[b]
	for _, c := range idx.Cols {
		va, vb := ra[c], rb[c]
		if va.IsNull() || vb.IsNull() {
			if va.IsNull() && !vb.IsNull() {
				return 1
			}
			if !va.IsNull() && vb.IsNull() {
				return -1
			}
			continue
		}
		// Integers order exactly (types.Compare goes through float64), so
		// rows the equality table tells apart are never interleaved.
		if ai, ok := va.KeyInt(); ok {
			if bi, ok := vb.KeyInt(); ok {
				if ai != bi {
					if ai < bi {
						return -1
					}
					return 1
				}
				continue
			}
		}
		if cmp := types.Compare(va, vb); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// hashKey hashes a full key; ok=false when it holds a NULL, which equals
// nothing.
func hashKey(vals []types.Value) (h uint64, ok bool) {
	for _, v := range vals {
		if v.IsNull() {
			return 0, false
		}
		h = types.HashKey(h, v)
	}
	return h, true
}

// matches reports whether the row at offset off has exactly the key vals.
func (idx *Index) matches(off int32, vals []types.Value) bool {
	r := idx.Table.Rows[off]
	for i, c := range idx.Cols {
		if !types.KeyEqual(r[c], vals[i]) {
			return false
		}
	}
	return true
}

// Lookup returns the row offsets whose full key equals vals, in heap
// order; the slice aliases the index and must not be modified. The number
// of values must equal the number of key columns. A NULL among vals
// matches nothing. Lookup does not allocate.
func (idx *Index) Lookup(vals []types.Value) []int32 {
	h, ok := hashKey(vals)
	if !ok {
		return nil
	}
	mask := uint32(len(idx.slots) - 1)
	for s := uint32(h) & mask; idx.slots[s] != 0; s = (s + 1) & mask {
		lo := int(idx.slots[s] - 1)
		if !idx.matches(idx.ordered[lo], vals) {
			continue
		}
		hi := lo + 1
		for hi < len(idx.ordered) && idx.matches(idx.ordered[hi], vals) {
			hi++
		}
		return idx.ordered[lo:hi:hi]
	}
	return nil
}

// LookupPrefix returns row offsets whose leading key column equals v,
// in key order. Used for single-column equality on composite keys.
func (idx *Index) LookupPrefix(v types.Value) []int32 {
	c := idx.Cols[0]
	lo := sort.Search(len(idx.ordered), func(i int) bool {
		rv := idx.Table.Rows[idx.ordered[i]][c]
		return rv.IsNull() || types.Compare(rv, v) >= 0
	})
	hi := lo
	for hi < len(idx.ordered) {
		rv := idx.Table.Rows[idx.ordered[hi]][c]
		if rv.IsNull() || !types.Equal(rv, v) {
			break
		}
		hi++
	}
	return idx.ordered[lo:hi:hi]
}

// Ordered returns all row offsets in key order (an index full scan).
func (idx *Index) Ordered() []int32 { return idx.ordered }

// Database bundles schema, heap tables, indexes and statistics.
type Database struct {
	Schema  *catalog.Schema
	Tables  map[string]*Table
	Indexes map[string]*Index // keyed by table name (primary key index)
	Stats   map[string]*catalog.TableStats
}

// NewDatabase returns an empty database over the given schema.
func NewDatabase(schema *catalog.Schema) *Database {
	return &Database{
		Schema:  schema,
		Tables:  map[string]*Table{},
		Indexes: map[string]*Index{},
		Stats:   map[string]*catalog.TableStats{},
	}
}

// Load installs rows for a schema table, builds its primary-key index and
// analyzes it.
func (db *Database) Load(name string, rows []Row) error {
	meta, ok := db.Schema.Table(name)
	if !ok {
		return fmt.Errorf("storage: unknown table %q", name)
	}
	for i, r := range rows {
		if len(r) != len(meta.Columns) {
			return fmt.Errorf("storage: table %q row %d has %d columns, want %d", name, i, len(r), len(meta.Columns))
		}
	}
	t := NewTable(meta, rows)
	db.Tables[name] = t
	if len(meta.PrimaryKey) > 0 {
		db.Indexes[name] = BuildIndex(name+"_pkey", t, meta.PrimaryKey)
	}
	db.Stats[name] = catalog.AnalyzeRowsSketch(meta, rows)
	return nil
}

// Table returns the named heap table.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.Tables[name]
	return t, ok
}

// PrimaryIndex returns the primary-key index of the named table, if any.
func (db *Database) PrimaryIndex(name string) (*Index, bool) {
	i, ok := db.Indexes[name]
	return i, ok
}

// TableStats returns the analyzed statistics of the named table.
func (db *Database) TableStats(name string) (*catalog.TableStats, bool) {
	s, ok := db.Stats[name]
	return s, ok
}
