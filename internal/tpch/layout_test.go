package tpch

import (
	"runtime"
	"testing"
	"unsafe"

	"qpp/internal/storage"
	"qpp/internal/types"
)

// perRowBuild is every table of Generate(cfg) as its generator returns
// it, one allocation per row and per string, before the loader packs it.
func perRowBuild(cfg GenConfig) map[string][]storage.Row {
	out := map[string][]storage.Row{}
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
// included, is at most 1 000 heap objects (one per row and per string,
// ≈ 100 000, before the packing).
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

	want := perRowBuild(cfg)
	valueSize := unsafe.Sizeof(types.Value{})
	for _, name := range db.Schema.TableNames() {
		tab, _ := db.Table(name)
		rows := tab.Rows
		if len(rows) != len(want[name]) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(want[name]))
		}
		bytesAt := map[string]*byte{}
		for i, r := range rows {
			if cap(r) != len(r) {
				t.Fatalf("%s row %d: cap %d, len %d", name, i, cap(r), len(r))
			}
			if i > 0 {
				prev := rows[i-1]
				if unsafe.Pointer(&r[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*valueSize) {
					t.Fatalf("%s row %d does not follow row %d in one array", name, i, i-1)
				}
			}
			for c, v := range r {
				if !types.Identical(v, want[name][i][c]) {
					t.Fatalf("%s row %d col %d: %v, want %v", name, i, c, v, want[name][i][c])
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
		if len(rows) > 1 {
			next := rows[1][0]
			grown := append(rows[0], types.Int(-1))
			if !types.Identical(rows[1][0], next) || &grown[0] == &rows[0][0] {
				t.Fatalf("%s: appending to row 0 wrote into row 1", name)
			}
		}
	}
}
