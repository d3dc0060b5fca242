package storage

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"qpp/internal/catalog"
	"qpp/internal/types"
)

func testMeta() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: types.KindInt},
			{Name: "b", Type: types.KindInt},
			{Name: "s", Type: types.KindString},
		},
		PrimaryKey: []int{0, 1},
	}
}

func testRows(n int) types.Rows {
	vals := make([]types.Value, 0, 3*n)
	for i := range n {
		vals = append(vals, types.Int(int64(i/3)), types.Int(int64(i%3)), types.Str("x"))
	}
	return types.NewRows(3, vals)
}

func TestTablePaging(t *testing.T) {
	tab := NewTable(testMeta(), testRows(10000))
	if tab.RowsPerPage <= 0 || tab.Pages <= 0 {
		t.Fatalf("layout %+v", tab)
	}
	if tab.PageOf(0) != 0 {
		t.Fatal("first row on page 0")
	}
	if tab.PageOf(tab.Rows.Len()-1) != int64((tab.Rows.Len()-1)/tab.RowsPerPage) {
		t.Fatal("last page")
	}
}

// TestTableRowViews: a table's row is an offset into one value array, read
// through a view. Row i+1 starts where row i ends, each view has
// cap == len, and an append to row i copies it, leaving row i+1 as it was.
func TestTableRowViews(t *testing.T) {
	tab := NewTable(testMeta(), testRows(300))
	rows, size := tab.Rows, unsafe.Sizeof(types.Value{})
	for i := range rows.Len() - 1 {
		r, next := rows.Row(i), rows.Row(i+1)
		if len(r) != 3 || cap(r) != len(r) {
			t.Fatalf("row %d: len %d cap %d, want len = cap = 3", i, len(r), cap(r))
		}
		if unsafe.Pointer(&next[0]) != unsafe.Add(unsafe.Pointer(&r[0]), uintptr(len(r))*size) {
			t.Fatalf("row %d does not start where row %d ends", i+1, i)
		}
		want := slices.Clone(next)
		grown := append(r, types.Int(-1))
		if &grown[0] == &r[0] {
			t.Fatalf("appending to row %d grew it in place", i)
		}
		for c, v := range rows.Row(i + 1) {
			if !types.Identical(v, want[c]) {
				t.Fatalf("appending to row %d wrote %s %q into row %d col %d", i, v.Kind(), v.Key(), i+1, c)
			}
		}
	}
}

func TestIndexLookup(t *testing.T) {
	tab := NewTable(testMeta(), testRows(300))
	idx := BuildIndex("pk", tab, []int{0, 1})
	got := idx.Lookup([]types.Value{types.Int(5), types.Int(2)})
	if len(got) != 1 || got[0] != 17 {
		t.Fatalf("lookup got %v", got)
	}
	if r := idx.Lookup([]types.Value{types.Int(999), types.Int(0)}); r != nil {
		t.Fatalf("missing key should return nil, got %v", r)
	}
}

func TestIndexLookupPrefix(t *testing.T) {
	tab := NewTable(testMeta(), testRows(300))
	idx := BuildIndex("pk", tab, []int{0, 1})
	got := idx.LookupPrefix(types.Int(7))
	if len(got) != 3 {
		t.Fatalf("prefix lookup got %d rows, want 3", len(got))
	}
	for i, r := range got {
		if row := tab.Rows.Row(int(r)); row[0].I() != 7 || row[1].I() != int64(i) {
			t.Fatalf("row %v out of order", row)
		}
	}
	if got := idx.LookupPrefix(types.Int(-1)); len(got) != 0 {
		t.Fatal("missing prefix")
	}
}

func TestIndexOrderedIsSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		vals := make([]types.Value, 0, 3*n)
		for range n {
			vals = append(vals, types.Int(int64(rng.Intn(50))), types.Int(int64(rng.Intn(50))), types.Str(""))
		}
		tab := NewTable(testMeta(), types.NewRows(3, vals))
		idx := BuildIndex("pk", tab, []int{0, 1})
		ord := idx.Ordered()
		if len(ord) != n {
			return false
		}
		for i := 1; i < len(ord); i++ {
			if idx.compareRows(ord[i-1], ord[i]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexNullOrdering(t *testing.T) {
	rows := types.RowsOf([][]types.Value{
		{types.Null, types.Int(0), types.Str("")},
		{types.Int(1), types.Int(0), types.Str("")},
		{types.Int(0), types.Int(0), types.Str("")},
	}...)
	tab := NewTable(testMeta(), rows)
	idx := BuildIndex("pk", tab, []int{0})
	ord := idx.Ordered()
	// NULLs sort last.
	if !tab.Rows.Row(int(ord[2]))[0].IsNull() {
		t.Fatalf("null should be last, got order %v", ord)
	}
	if got := idx.LookupPrefix(types.Int(0)); len(got) != 1 {
		t.Fatalf("lookup near null got %v", got)
	}
}

func TestDatabaseLoad(t *testing.T) {
	schema := catalog.NewSchema()
	if err := schema.AddTable(testMeta()); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	if err := db.Load("t", testRows(50)); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("t"); !ok {
		t.Fatal("table missing")
	}
	if _, ok := db.PrimaryIndex("t"); !ok {
		t.Fatal("pk index missing")
	}
	st, ok := db.TableStats("t")
	if !ok || st.RowCount != 50 {
		t.Fatalf("stats %+v", st)
	}
	if err := db.Load("nope", types.Rows{}); err == nil {
		t.Fatal("unknown table should fail")
	}
	if err := db.Load("t", types.RowsOf([]types.Value{types.Int(1)})); err == nil {
		t.Fatal("rows of the wrong width should fail")
	}
}

// TestLoadTablesMatchesLoad: loading several tables in one call gives the
// blocks, indexes and statistics that loading them one by one does, and a
// call with one bad table installs none of them.
func TestLoadTablesMatchesLoad(t *testing.T) {
	schema := catalog.NewSchema()
	u := testMeta()
	u.Name = "u"
	u.PrimaryKey = nil
	for _, m := range []*catalog.Table{testMeta(), u} {
		if err := schema.AddTable(m); err != nil {
			t.Fatal(err)
		}
	}
	one := NewDatabase(schema)
	if err := one.Load("t", testRows(500)); err != nil {
		t.Fatal(err)
	}
	if err := one.Load("u", testRows(70)); err != nil {
		t.Fatal(err)
	}
	all := NewDatabase(schema)
	if err := all.LoadTables([]TableRows{{"t", testRows(500)}, {"u", testRows(70)}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t", "u"} {
		a, b := one.Tables[name], all.Tables[name]
		if a.Rows.Len() != b.Rows.Len() || a.Pages != b.Pages {
			t.Fatalf("%s: %d rows / %d pages vs %d / %d", name, a.Rows.Len(), a.Pages, b.Rows.Len(), b.Pages)
		}
		for i := range a.Rows.Len() {
			for c, v := range a.Rows.Row(i) {
				if !types.Identical(v, b.Rows.Row(i)[c]) {
					t.Fatalf("%s row %d col %d differs", name, i, c)
				}
			}
		}
		if !reflect.DeepEqual(one.Stats[name], all.Stats[name]) {
			t.Fatalf("%s: statistics differ", name)
		}
	}
	if !slices.Equal(one.Indexes["t"].Ordered(), all.Indexes["t"].Ordered()) {
		t.Fatal("t: index order differs")
	}
	if _, ok := all.Indexes["u"]; ok {
		t.Fatal("u has no primary key, so no index")
	}

	fresh := NewDatabase(schema)
	if err := fresh.LoadTables([]TableRows{{"t", testRows(5)}, {"u", types.RowsOf([]types.Value{types.Int(1)})}}); err == nil {
		t.Fatal("rows of the wrong width should fail")
	}
	if len(fresh.Tables)+len(fresh.Indexes)+len(fresh.Stats) != 0 {
		t.Fatal("a failed LoadTables installed tables")
	}
}
