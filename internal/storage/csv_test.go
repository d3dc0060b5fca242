package storage

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"qpp/internal/catalog"
	"qpp/internal/types"
)

func csvMeta() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: types.KindInt},
			{Name: "price", Type: types.KindFloat},
			{Name: "name", Type: types.KindString},
			{Name: "d", Type: types.KindDate},
		},
		PrimaryKey: []int{0},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	meta := csvMeta()
	rows := types.RowsOf([][]types.Value{
		{types.Int(1), types.Float(9.5), types.Str("widget, large"), types.Date(types.MustDate("1994-01-01"))},
		{types.Int(2), types.Float(-1.25), types.Str(`quoted "name"`), types.Date(types.MustDate("1998-12-31"))},
		{types.Null, types.Float(0), types.Str(""), types.Date(0)},
		// Floats String() would round: the writer spells them exactly.
		{types.Int(-1 << 63), types.Float(0.1 + 0.2), types.Str("NULL "), types.Date(-1)},
		{types.Int(3), types.Float(math.Copysign(0, -1)), types.Str("null"), types.Date(20000)},
		{types.Int(4), types.Float(5e-324), types.Str("a\nb"), types.Date(1)},
	}...)
	tab := NewTable(meta, rows)
	var buf bytes.Buffer
	if err := WriteCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(meta, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rows.Len() || got.Width() != rows.Width() {
		t.Fatalf("rows %d of width %d, want %d of width %d", got.Len(), got.Width(), rows.Len(), rows.Width())
	}
	for i := range rows.Len() {
		for j, a := range rows.Row(i) {
			if b := got.Row(i)[j]; !types.Identical(a, b) {
				t.Fatalf("row %d col %d: wrote %s %v, read %s %v", i, j, a.Kind(), a.Key(), b.Kind(), b.Key())
			}
		}
	}
}

// A string cell spelled NULL cannot be told from SQL NULL on the way back
// in, so WriteCSV refuses it instead of silently changing the table.
func TestWriteCSVRejectsNullSpelledString(t *testing.T) {
	tab := NewTable(csvMeta(), types.RowsOf([]types.Value{types.Int(1), types.Float(1), types.Str("NULL"), types.Date(0)}))
	err := WriteCSV(tab, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `column "name"`) {
		t.Fatalf("WriteCSV of a string cell NULL: err = %v, want an error naming the column", err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	meta := csvMeta()
	cases := []string{
		"",                       // no header
		"wrong,header,names,x\n", // header mismatch
		"id,price,name,d\nnotanint,1,x,1994-01-01\n", // bad int
		"id,price,name,d\n1,notafloat,x,1994-01-01\n",
		"id,price,name,d\n1,1,x,notadate\n",
		"id,price,name,d\n1,1\n", // wrong arity
	}
	for i, c := range cases {
		if _, err := ReadCSV(meta, strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestReadCSVNullHandling(t *testing.T) {
	meta := csvMeta()
	rows, err := ReadCSV(meta, strings.NewReader("id,price,name,d\nNULL,NULL,NULL,NULL\n"))
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range rows.Row(0) {
		if !v.IsNull() {
			t.Fatalf("col %d should be NULL", j)
		}
	}
}
