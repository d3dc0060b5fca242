package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func testRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{types.Int(int64(i / 3)), types.Int(int64(i % 3)), types.Str("x")}
	}
	return rows
}

func TestTablePaging(t *testing.T) {
	tab := NewTable(testMeta(), testRows(10000))
	if tab.RowsPerPage <= 0 || tab.Pages <= 0 {
		t.Fatalf("layout %+v", tab)
	}
	if tab.PageOf(0) != 0 {
		t.Fatal("first row on page 0")
	}
	if tab.PageOf(len(tab.Rows)-1) != int64((len(tab.Rows)-1)/tab.RowsPerPage) {
		t.Fatal("last page")
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
		if tab.Rows[r][0].I() != 7 || tab.Rows[r][1].I() != int64(i) {
			t.Fatalf("row %v out of order", tab.Rows[r])
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
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{types.Int(int64(rng.Intn(50))), types.Int(int64(rng.Intn(50))), types.Str("")}
		}
		tab := NewTable(testMeta(), rows)
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
	rows := []Row{
		{types.Null, types.Int(0), types.Str("")},
		{types.Int(1), types.Int(0), types.Str("")},
		{types.Int(0), types.Int(0), types.Str("")},
	}
	tab := NewTable(testMeta(), rows)
	idx := BuildIndex("pk", tab, []int{0})
	ord := idx.Ordered()
	// NULLs sort last.
	if !tab.Rows[ord[2]][0].IsNull() {
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
	if err := db.Load("nope", nil); err == nil {
		t.Fatal("unknown table should fail")
	}
	if err := db.Load("t", []Row{{types.Int(1)}}); err == nil {
		t.Fatal("ragged row should fail")
	}
}
