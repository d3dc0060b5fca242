package tpch

import (
	"runtime"
	"testing"
	"unsafe"

	"qpp/internal/types"
)

// generated is every table of Generate(cfg) as its generator returns it,
// one value array per table and one allocation per string, before the
// loader packs it.
func generated(cfg GenConfig) map[string]types.Rows {
	out := map[string]types.Rows{}
	for _, tr := range genTables(cfg) {
		out[tr.Name] = tr.Rows
	}
	return out
}

// TestTableLayout pins the packed table layout on a generated SF 0.005
// database: each table's rows are consecutive stretches of one value
// array, each capped so an append copies instead of overwriting the next
// row; equal strings share their bytes; every value is identical to the
// generator's own; and the whole database, statistics and indexes
// included, is at most 1 000 heap objects (one per generated string
// before the packing).
func TestTableLayout(t *testing.T) {
	cfg := GenConfig{ScaleFactor: 0.005, Seed: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("database: %d heap objects", objects)
	if objects > 1000 {
		t.Errorf("database holds %d heap objects, want at most 1000", objects)
	}
	runtime.KeepAlive(db)

	want := generated(cfg)
	valueSize := unsafe.Sizeof(types.Value{})
	for _, name := range db.Schema.TableNames() {
		tab, _ := db.Table(name)
		rows := tab.Rows
		if rows.Len() != want[name].Len() || rows.Width() != want[name].Width() {
			t.Fatalf("%s: %d rows of width %d, want %d of width %d", name, rows.Len(), rows.Width(), want[name].Len(), want[name].Width())
		}
		bytesAt := map[string]*byte{}
		for i := range rows.Len() {
			r := rows.Row(i)
			if cap(r) != len(r) {
				t.Fatalf("%s row %d: cap %d, len %d", name, i, cap(r), len(r))
			}
			if i > 0 {
				prev := rows.Row(i - 1)
				if unsafe.Pointer(&r[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*valueSize) {
					t.Fatalf("%s row %d does not follow row %d in one array", name, i, i-1)
				}
			}
			for c, v := range r {
				if w := want[name].Row(i)[c]; !types.Identical(v, w) {
					t.Fatalf("%s row %d col %d: %v, want %v", name, i, c, v, w)
				}
				if v.Kind() != types.KindString || v.S() == "" {
					continue
				}
				p := unsafe.StringData(v.S())
				if q, ok := bytesAt[v.S()]; ok && q != p {
					t.Fatalf("%s row %d col %d: %q stored twice", name, i, c, v.S())
				}
				bytesAt[v.S()] = p
			}
		}
		// An append to a row copies it: its neighbour is untouched.
		if rows.Len() > 1 {
			next := rows.Row(1)[0]
			grown := append(rows.Row(0), types.Int(-1))
			if !types.Identical(rows.Row(1)[0], next) || &grown[0] == &rows.Row(0)[0] {
				t.Fatalf("%s: appending to row 0 wrote into row 1", name)
			}
		}
	}
}
