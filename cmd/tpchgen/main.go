// Command tpchgen generates TPC-H tables at a given scale factor and
// writes them as CSV files (one per table), like the benchmark's dbgen.
//
// Usage:
//
//	tpchgen -sf 0.01 -seed 42 -out ./data
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"qpp/internal/storage"
	"qpp/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (1.0 = ~1 GB)")
	seed := flag.Int64("seed", 42, "generation seed")
	out := flag.String("out", ".", "output directory")
	tables := flag.String("tables", "", "comma-free list is not supported; empty = all tables, or one table name")
	flag.Parse()

	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: *sf, Seed: *seed})
	if err != nil {
		log.Fatalf("tpchgen: %v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("tpchgen: %v", err)
	}
	names := db.Schema.TableNames()
	if *tables != "" {
		names = []string{*tables}
	}
	for _, name := range names {
		t, ok := db.Table(name)
		if !ok {
			log.Fatalf("tpchgen: unknown table %q", name)
		}
		path := filepath.Join(*out, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("tpchgen: %v", err)
		}
		if err := storage.WriteCSV(t, f); err != nil {
			log.Fatalf("tpchgen: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("tpchgen: %v", err)
		}
		fmt.Printf("%-10s %8d rows -> %s\n", name, len(t.Rows), path)
	}
}
