package tpch

import (
	"os"
	"path/filepath"
	"testing"

	"qpp/internal/storage"
	"qpp/internal/types"
)

// TestCSVDirRoundTrip: a database loaded from the files tpchgen writes is
// the database Generate made, cell for cell (so its statistics and every
// virtual latency measured on it are the same too).
func TestCSVDirRoundTrip(t *testing.T) {
	for _, sf := range []float64{0.001, 0.005} {
		db, err := Generate(GenConfig{ScaleFactor: sf, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, name := range db.Schema.TableNames() {
			tab, _ := db.Table(name)
			f, err := os.Create(filepath.Join(dir, name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteCSV(tab, f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := LoadCSVDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range db.Schema.TableNames() {
			a, _ := db.Table(name)
			b, _ := loaded.Table(name)
			if a.Rows.Len() != b.Rows.Len() {
				t.Fatalf("sf %g %s: %d vs %d rows", sf, name, a.Rows.Len(), b.Rows.Len())
			}
			differ := 0
			for i := range a.Rows.Len() {
				for j, va := range a.Rows.Row(i) {
					if vb := b.Rows.Row(i)[j]; !types.Identical(va, vb) {
						if differ == 0 {
							t.Errorf("sf %g %s row %d col %d: wrote %v, read %v", sf, name, i, j, va.Key(), vb.Key())
						}
						differ++
					}
				}
			}
			if differ > 0 {
				t.Errorf("sf %g %s: %d cells differ", sf, name, differ)
			}
		}
	}
	if _, err := LoadCSVDir(t.TempDir()); err == nil {
		t.Fatal("empty dir must fail")
	}
}
