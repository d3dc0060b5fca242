package storage_test

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"qpp/internal/tpch"
	"qpp/internal/types"
)

// heapAfterGC forces a collection and returns the heap's live bytes and
// the scannable share of them the cycle just measured.
func heapAfterGC() (alloc, scan uint64) {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(sample)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, sample[0].Value.Uint64()
}

// loadedDatabaseBytes is the live heap an SF 0.005 database (seed 1) was
// measured to hold, tables, indexes and statistics: 13.33 MB while each
// row kept a slice header in its table's block, 12.29 MB since a row is an
// offset into the table's values.
const loadedDatabaseBytes = 12.29e6

// TestLoadedDatabaseIsNotScanned pins why serving's tail latency no longer
// follows the database's size: a table is one pointer-free block
// (types.PackRows), which the collector marks without reading. Generating
// an SF 0.005 database may grow the scannable heap by at most 2 % of what
// it grows the live heap; with pointerful value and row arrays it was
// 84 % (15.25 of 18.06 MB), with the blocks 0.3 %. It also pins the
// database's size: the live heap may grow by at most 2 % more than
// loadedDatabaseBytes, so a layout that spends more per row fails here.
func TestLoadedDatabaseIsNotScanned(t *testing.T) {
	alloc0, scan0 := heapAfterGC()
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	alloc1, scan1 := heapAfterGC()
	runtime.KeepAlive(db)
	grew := float64(alloc1) - float64(alloc0)
	scanned := float64(scan1) - float64(scan0)
	t.Logf("database: live heap +%.2f MB, scannable +%.3f MB (%.2f %%)", grew/1e6, scanned/1e6, 100*scanned/grew)
	if grew <= 0 || scanned > 0.02*grew {
		t.Errorf("generating the database grew the scannable heap by %.0f of %.0f bytes, want at most 2 %%", scanned, grew)
	}
	if limit := 1.02 * loadedDatabaseBytes; grew > limit {
		t.Errorf("generating the database grew the live heap by %.0f bytes, want at most %.0f", grew, limit)
	}
}

// customers generates a small database and returns its customer rows; the
// rest of the database is garbage once the caller drops them.
func customers(t *testing.T, seed int64) types.Rows {
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.001, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table(tpch.Customer)
	return tab.Rows
}

// keptValues reads a string and a string Value out of one fresh database
// and returns them with copies of their bytes made outside it.
//
//go:noinline
func keptValues(t *testing.T) (s string, v types.Value, wantS, wantV string) {
	rows := customers(t, 5)
	for _, c := range rows.Row(rows.Len() - 1) {
		if len(c.S()) > len(s) {
			s = c.S()
		}
	}
	for _, c := range rows.Row(0) {
		if len(c.S()) > len(v.S()) {
			v = c
		}
	}
	return s, v, strings.Clone(s), strings.Clone(v.S())
}

// keptRow reads one row out of another fresh database and returns it with
// its cells spelled out.
//
//go:noinline
func keptRow(t *testing.T) ([]types.Value, []string) {
	rows := customers(t, 6)
	row := rows.Row(rows.Len() / 2)
	var want []string
	for _, c := range row {
		want = append(want, c.Kind().String()+" "+strings.Clone(c.Key()))
	}
	return row, want
}

// TestPackedStringsOutliveTheirTable: a string, Value or row copied out of
// a table points into its block, and that alone must keep what it reads —
// values and string bytes — alive once the database is gone and its
// memory has been reused. The row comes from a database of its own, so
// nothing but the row reaches that table's strings.
func TestPackedStringsOutliveTheirTable(t *testing.T) {
	s, v, wantS, wantV := keptValues(t)
	row, wantRow := keptRow(t)
	if s == "" || v.S() == "" {
		t.Fatal("customer rows hold no string to keep")
	}
	var churn [][]byte
	for i := 0; i < 6; i++ {
		runtime.GC()
		churn = churn[:0]
		for n := 16; n <= 1<<14; n *= 2 {
			for j := 0; j < 64; j++ {
				churn = append(churn, []byte(strings.Repeat("#", n-j%16)))
			}
		}
	}
	if s != wantS {
		t.Errorf("kept string reads %q, want %q", s, wantS)
	}
	if got := v.S(); got != wantV {
		t.Errorf("kept value reads %q, want %q", got, wantV)
	}
	for i, c := range row {
		if got := c.Kind().String() + " " + c.Key(); got != wantRow[i] {
			t.Errorf("kept row col %d reads %q, want %q", i, got, wantRow[i])
		}
	}
	runtime.KeepAlive(churn)
}
