package tpch

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"qpp/internal/parallel"
	"qpp/internal/storage"
	"qpp/internal/types"
)

// GenConfig controls the data generator.
type GenConfig struct {
	// ScaleFactor is the TPC-H SF; SF 1 is the spec's ~1 GB database.
	// Fractional scale factors shrink every table proportionally while
	// keeping the fixed 25-nation / 5-region dimension tables.
	ScaleFactor float64
	// Seed makes generation deterministic.
	Seed int64
}

// Cardinalities per the spec at SF 1.
const (
	supplierBase = 10000
	customerBase = 150000
	partBase     = 200000
	ordersBase   = 1500000
)

var (
	startDate = types.MustDate("1992-01-01")
	endDate   = types.MustDate("1998-12-31")
)

// Generate builds a fully loaded, analyzed TPC-H database at the given
// scale factor. All eight tables are generated with spec-conformant
// value distributions, referential integrity, and the pricing formulas
// (l_extendedprice from p_retailprice, o_totalprice from line items).
//
// The tables generate concurrently on GOMAXPROCS workers (genTables) and
// load through one storage.Database.LoadTables call, which packs, indexes
// and analyzes them concurrently too. Each table draws from its own random
// stream and no generator reads another's rows, so the database is
// bit-identical for every worker count.
func Generate(cfg GenConfig) (*storage.Database, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %v", cfg.ScaleFactor)
	}
	db := storage.NewDatabase(Schema())
	if err := db.LoadTables(genTables(cfg)); err != nil {
		return nil, err
	}
	return db, nil
}

// genTables returns the rows of all eight tables, in schema order, as
// their generators return them: each generator appends its table's values,
// row after row, to one presized array. The seven generators run under
// parallel.ForEach, orders and lineitem (the biggest by far) first.
func genTables(cfg GenConfig) []storage.TableRows {
	nSupp := scaled(supplierBase, cfg.ScaleFactor)
	nCust := scaled(customerBase, cfg.ScaleFactor)
	nPart := scaled(partBase, cfg.ScaleFactor)
	nOrd := scaled(ordersBase, cfg.ScaleFactor)
	rng := func(table string) *rand.Rand { return tableRNG(cfg.Seed, table) }

	var region, nation, supplier, customer, part, partsupp, orders, lineitem types.Rows
	gens := []func(){
		func() { orders, lineitem = genOrdersAndLineitems(rng(Orders), nOrd, nCust, nPart, nSupp) },
		func() { partsupp = genPartSupp(rng(PartSupp), nPart, nSupp) },
		func() { part = genPart(rng(Part), nPart) },
		func() { customer = genCustomer(rng(Customer), nCust) },
		func() { supplier = genSupplier(rng(Supplier), nSupp) },
		func() { nation = genNation(rng(Nation)) },
		func() { region = genRegion(rng(Region)) },
	}
	//qpplint:ignore errdrop no generator returns an error
	_ = parallel.ForEach(len(gens), 0, func(i int) error {
		gens[i]()
		return nil
	})
	return []storage.TableRows{
		{Name: Region, Rows: region}, {Name: Nation, Rows: nation},
		{Name: Supplier, Rows: supplier}, {Name: Customer, Rows: customer},
		{Name: Part, Rows: part}, {Name: PartSupp, Rows: partsupp},
		{Name: Orders, Rows: orders}, {Name: Lineitem, Rows: lineitem},
	}
}

// scaled is a table's row count at scale factor sf, at least one.
func scaled(base int, sf float64) int {
	return max(1, int(float64(base)*sf))
}

// tableRNG is the random source one table is generated from.
func tableRNG(seed int64, table string) *rand.Rand {
	h := int64(0)
	for _, c := range table {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed ^ h))
}

func genRegion(rng *rand.Rand) types.Rows {
	const width = 3
	vals := make([]types.Value, 0, len(regionNames)*width)
	for i, name := range regionNames {
		vals = append(vals,
			types.Int(int64(i)), types.Str(name),
			types.Str(randomComment(rng, 6, 0)),
		)
	}
	return types.NewRows(width, vals)
}

func genNation(rng *rand.Rand) types.Rows {
	const width = 4
	vals := make([]types.Value, 0, len(nationList)*width)
	for i, n := range nationList {
		vals = append(vals,
			types.Int(int64(i)), types.Str(n.Name), types.Int(n.Region),
			types.Str(randomComment(rng, 8, 0)),
		)
	}
	return types.NewRows(width, vals)
}

func genSupplier(rng *rand.Rand, n int) types.Rows {
	const width = 7
	vals := make([]types.Value, 0, n*width)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		nation := int64(rng.Intn(25))
		// Per the spec, a small fraction of supplier comments embed
		// "Customer …Complaints" (Q16's anti-join predicate matches them).
		comment := randomComment(rng, 7, 0)
		if rng.Float64() < 0.002 {
			comment = "Customer " + comment + " Complaints"
		}
		vals = append(vals,
			types.Int(key),
			types.Str(fmt.Sprintf("Supplier#%09d", key)),
			types.Str(randomVString(rng, 10, 40)),
			types.Int(nation),
			types.Str(phoneFor(rng, nation)),
			types.Float(float64(rng.Intn(1099998)-99999)/100), // -999.99 .. 9999.99
			types.Str(comment),
		)
	}
	return types.NewRows(width, vals)
}

func genCustomer(rng *rand.Rand, n int) types.Rows {
	const width = 8
	vals := make([]types.Value, 0, n*width)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		nation := int64(rng.Intn(25))
		vals = append(vals,
			types.Int(key),
			types.Str(fmt.Sprintf("Customer#%09d", key)),
			types.Str(randomVString(rng, 10, 40)),
			types.Int(nation),
			types.Str(phoneFor(rng, nation)),
			types.Float(float64(rng.Intn(1099998)-99999)/100),
			types.Str(segments[rng.Intn(len(segments))]),
			types.Str(randomComment(rng, 9, 0)),
		)
	}
	return types.NewRows(width, vals)
}

// retailPrice implements the spec formula 90000 + (pk/10)%20001 + 100*(pk%1000), in cents.
func retailPrice(partkey int64) float64 {
	return float64(90000+(partkey/10)%20001+100*(partkey%1000)) / 100
}

func genPart(rng *rand.Rand, n int) types.Rows {
	const width = 9
	vals := make([]types.Value, 0, n*width)
	for i := 0; i < n; i++ {
		key := int64(i + 1)
		m := 1 + rng.Intn(5)
		vals = append(vals,
			types.Int(key),
			types.Str(partName(rng)),
			types.Str(fmt.Sprintf("Manufacturer#%d", m)),
			types.Str(fmt.Sprintf("Brand#%d%d", m, 1+rng.Intn(5))),
			types.Str(partType(rng)),
			types.Int(int64(1+rng.Intn(50))),
			types.Str(partContainer(rng)),
			types.Float(retailPrice(key)),
			types.Str(randomComment(rng, 5, 0)),
		)
	}
	return types.NewRows(width, vals)
}

// suppForPart implements the spec's supplier distribution formula so each
// part has exactly 4 suppliers spread across the supplier table.
func suppForPart(partkey int64, i int, nSupp int) int64 {
	s := int64(nSupp)
	return (partkey+int64(i)*(s/4+(partkey-1)/s))%s + 1
}

func genPartSupp(rng *rand.Rand, nPart, nSupp int) types.Rows {
	const width = 5
	vals := make([]types.Value, 0, nPart*4*width)
	for p := 1; p <= nPart; p++ {
		for i := 0; i < 4; i++ {
			vals = append(vals,
				types.Int(int64(p)),
				types.Int(suppForPart(int64(p), i, nSupp)),
				types.Int(int64(1+rng.Intn(9999))),
				types.Float(float64(100+rng.Intn(99901))/100), // 1.00 .. 1000.00
				types.Str(randomComment(rng, 12, 0)),
			)
		}
	}
	return types.NewRows(width, vals)
}

// genOrdersAndLineitems returns orders and their line items. An order has
// 1 to 7 lines, four on average; lineitem's array is presized for that mean
// plus an eighth, so that it is seldom grown and copied.
func genOrdersAndLineitems(rng *rand.Rand, nOrd, nCust, nPart, nSupp int) (types.Rows, types.Rows) {
	const orderWidth, lineWidth = 9, 16
	orders := make([]types.Value, 0, nOrd*orderWidth)
	lines := make([]types.Value, 0, (nOrd*4+nOrd/8)*lineWidth)
	maxOrderDate := endDate - 151 // so l_receiptdate never exceeds endDate
	for o := 1; o <= nOrd; o++ {
		okey := int64(o)
		// Only two thirds of customers place orders (custkey % 3 != 0).
		ck := int64(1 + rng.Intn(nCust))
		for ck%3 == 0 {
			ck = int64(1 + rng.Intn(nCust))
		}
		odate := startDate + int64(rng.Intn(int(maxOrderDate-startDate+1)))

		nLines := 1 + rng.Intn(7)
		var total float64
		allF, allO := true, true
		for ln := 1; ln <= nLines; ln++ {
			pk := int64(1 + rng.Intn(nPart))
			sk := suppForPart(pk, rng.Intn(4), nSupp)
			qty := float64(1 + rng.Intn(50))
			price := qty * retailPrice(pk) // l_extendedprice = qty * p_retailprice
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := odate + int64(1+rng.Intn(121))
			commit := odate + int64(30+rng.Intn(61))
			receipt := ship + int64(1+rng.Intn(30))

			var rflag string
			if receipt <= CurrentDate {
				if rng.Intn(2) == 0 {
					rflag = "R"
				} else {
					rflag = "A"
				}
			} else {
				rflag = "N"
			}
			var lstatus string
			if ship > CurrentDate {
				lstatus = "O"
				allF = false
			} else {
				lstatus = "F"
				allO = false
			}
			total += price * (1 + tax) * (1 - disc)
			lines = append(lines,
				types.Int(okey), types.Int(pk), types.Int(sk), types.Int(int64(ln)),
				types.Float(qty), types.Float(price), types.Float(disc), types.Float(tax),
				types.Str(rflag), types.Str(lstatus),
				types.Date(ship), types.Date(commit), types.Date(receipt),
				types.Str(shipInstructs[rng.Intn(len(shipInstructs))]),
				types.Str(shipModes[rng.Intn(len(shipModes))]),
				types.Str(randomComment(rng, 5, 0)),
			)
		}
		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		orders = append(orders,
			types.Int(okey), types.Int(ck), types.Str(status), types.Float(total),
			types.Date(odate), types.Str(priorities[rng.Intn(len(priorities))]),
			types.Str(fmt.Sprintf("Clerk#%09d", 1+rng.Intn(max(1, nOrd/1500)))),
			types.Int(0),
			types.Str(randomComment(rng, 10, 0.03)),
		)
	}
	return types.NewRows(orderWidth, orders), types.NewRows(lineWidth, lines)
}

// LoadCSVDir builds a database from the CSV files cmd/tpchgen writes (one
// per table, named <table>.csv), re-analyzing statistics on load through
// the same loader Generate uses.
func LoadCSVDir(dir string) (*storage.Database, error) {
	db := storage.NewDatabase(Schema())
	var tables []storage.TableRows
	for _, name := range db.Schema.TableNames() {
		meta, _ := db.Schema.Table(name)
		f, err := os.Open(filepath.Join(dir, name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("tpch: load %s: %w", name, err)
		}
		rows, err := storage.ReadCSV(meta, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("tpch: load %s: %w", name, err)
		}
		tables = append(tables, storage.TableRows{Name: name, Rows: rows})
	}
	if err := db.LoadTables(tables); err != nil {
		return nil, err
	}
	return db, nil
}
