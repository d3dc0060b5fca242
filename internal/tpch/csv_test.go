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
			if len(a.Rows) != len(b.Rows) {
				t.Fatalf("sf %g %s: %d vs %d rows", sf, name, len(a.Rows), len(b.Rows))
			}
			differ := 0
			for i := range a.Rows {
				for j := range a.Rows[i] {
					if !types.Identical(a.Rows[i][j], b.Rows[i][j]) {
						if differ == 0 {
							t.Errorf("sf %g %s row %d col %d: wrote %v, read %v", sf, name, i, j, a.Rows[i][j].Key(), b.Rows[i][j].Key())
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
