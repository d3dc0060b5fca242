package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"qpp/internal/catalog"
	"qpp/internal/storage"
)

// generateGolden is the SHA-256 of databaseDigest over generateGoldenSet,
// in that order. Every estimate, plan and virtual latency downstream is a
// function of these cells and statistics, so a change that moves this
// digest moves every figure: it is to be updated only by a change that
// means to alter the generated data or ANALYZE.
const generateGolden = "fc8561cbe907b836b3bcacdef9aa362698c610506e7b46d2520ac11cc21a0ed1"

// generateGoldenSet is the (scale factor, seed) grid the golden covers.
var generateGoldenSet = []GenConfig{
	{ScaleFactor: 0.001, Seed: 1}, {ScaleFactor: 0.001, Seed: 42}, {ScaleFactor: 0.001, Seed: 100001},
	{ScaleFactor: 0.005, Seed: 1}, {ScaleFactor: 0.005, Seed: 42}, {ScaleFactor: 0.005, Seed: 100001},
}

// digestWriter writes length-prefixed fields to a hash, so no two field
// sequences share a byte stream.
type digestWriter struct{ h hash.Hash }

func (d digestWriter) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d digestWriter) f64(f float64) { d.u64(math.Float64bits(f)) }

func (d digestWriter) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// databaseDigest feeds every table of db to h in schema order: each
// cell's kind and Key(), the page layout, the primary-key index's row
// order and leaf pages, and every TableStats and ColumnStats field, floats
// by their bits.
func databaseDigest(h hash.Hash, db *storage.Database) {
	d := digestWriter{h}
	for _, name := range db.Schema.TableNames() {
		d.str(name)
		tab, _ := db.Table(name)
		d.u64(uint64(tab.Rows.Len()))
		for i := range tab.Rows.Len() {
			r := tab.Rows.Row(i)
			d.u64(uint64(len(r)))
			for _, v := range r {
				d.u64(uint64(v.Kind()))
				d.str(v.Key())
			}
		}
		d.u64(uint64(tab.RowsPerPage))
		d.u64(uint64(tab.Pages))
		if idx, ok := db.PrimaryIndex(name); ok {
			d.str(idx.Name)
			ord := idx.Ordered()
			d.u64(uint64(len(ord)))
			for _, off := range ord {
				d.u64(uint64(off))
			}
			d.u64(uint64(idx.LeafPages))
		}
		st, _ := db.TableStats(name)
		statsDigest(d, st)
	}
}

func statsDigest(d digestWriter, st *catalog.TableStats) {
	d.u64(uint64(st.RowCount))
	d.u64(uint64(st.Pages))
	d.f64(st.AvgWidth)
	if st.Sketched {
		d.u64(1)
	} else {
		d.u64(0)
	}
	d.u64(uint64(len(st.Columns)))
	for _, cs := range st.Columns {
		d.str(cs.Name)
		d.u64(uint64(cs.Kind))
		d.f64(cs.NullFrac)
		d.f64(cs.NDV)
		d.f64(cs.AvgWidth)
		d.f64(cs.Min)
		d.f64(cs.Max)
		d.u64(uint64(len(cs.Bounds)))
		for _, b := range cs.Bounds {
			d.f64(b)
		}
		d.u64(uint64(len(cs.MCVs)))
		for _, m := range cs.MCVs {
			d.str(m.Key)
			d.f64(m.Freq)
		}
	}
}

// TestGenerateGolden pins every generated cell, primary-key order and
// statistic to one digest, at one and at two schedulable CPUs: the
// generator and ANALYZE fan out over GOMAXPROCS workers, and their
// output must not depend on how many there are.
func TestGenerateGolden(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		h := sha256.New()
		for _, cfg := range generateGoldenSet {
			db, err := Generate(cfg)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			databaseDigest(h, db)
		}
		runtime.GOMAXPROCS(prev)
		if got := hex.EncodeToString(h.Sum(nil)); got != generateGolden {
			t.Errorf("GOMAXPROCS %d: generated data digest %s, want %s", procs, got, generateGolden)
		}
	}
}
