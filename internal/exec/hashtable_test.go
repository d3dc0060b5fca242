package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"qpp/internal/catalog"
	"qpp/internal/plan"
	"qpp/internal/storage"
	"qpp/internal/types"
)

// keyDB builds a database of un-analyzed heap tables (the executor's scans
// need nothing else), each holding the given rows.
func keyDB(t testing.TB, tables map[string][][]types.Value) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema()
	db := storage.NewDatabase(schema)
	for name, rows := range tables {
		meta := &catalog.Table{Name: name}
		if len(rows) > 0 {
			for c := range rows[0] {
				meta.Columns = append(meta.Columns, catalog.Column{Name: "c" + strconv.Itoa(c), Type: types.KindInt})
			}
		}
		if err := schema.AddTable(meta); err != nil {
			t.Fatal(err)
		}
		db.Tables[name] = storage.NewTable(meta, types.RowsOf(rows...))
	}
	return db
}

// anyCols returns bare column references 0..n-1. The static kind is
// deliberately wrong for half the test data: the table must not trust it.
func anyCols(n int) []plan.Scalar {
	out := make([]plan.Scalar, n)
	for i := range out {
		out[i] = icol(i)
	}
	return out
}

// keyJoin is an inner hash join of l and r on their first nkeys columns.
func keyJoin(l, r string, lcols, rcols, nkeys int) *plan.Node {
	left, right := scanNode(l, lcols), scanNode(r, rcols)
	hash := &plan.Node{Op: plan.OpHash, Children: []*plan.Node{right}, Cols: right.Cols}
	return &plan.Node{
		Op:       plan.OpHashJoin,
		Children: []*plan.Node{left, hash},
		Cols:     make([]plan.Column, lcols+rcols),
		Join:     &plan.JoinPayload{HashKeysL: anyCols(nkeys), HashKeysR: anyCols(nkeys)},
	}
}

// keyAgg is "select <first nkeys columns>, count(*) from tbl group by them".
func keyAgg(op plan.OpType, tbl string, ncols, nkeys int) *plan.Node {
	return &plan.Node{
		Op:       op,
		Children: []*plan.Node{scanNode(tbl, ncols)},
		Cols:     make([]plan.Column, nkeys+1),
		Agg:      &plan.AggPayload{GroupBy: anyCols(nkeys), Aggs: []plan.AggSpec{{Func: plan.AggCount, K: types.KindInt}}},
	}
}

// TestHashKeySemantics pins the typed equality every hash structure
// shares. Each case is a pair of key tuples; equal says whether they are
// one key. The rendered-string keys this replaced got the marked cases
// wrong.
func TestHashKeySemantics(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff8000000000123)
	negZero := math.Copysign(0, -1)
	v := func(vs ...types.Value) []types.Value { return vs }
	cases := []struct {
		name  string
		a, b  []types.Value
		equal bool
	}{
		{"int=int", v(types.Int(7)), v(types.Int(7)), true},
		{"int!=int", v(types.Int(7)), v(types.Int(8)), false},
		{"int kinds compare by payload", v(types.Int(9131)), v(types.Date(9131)), true},
		{"bool is an integer kind", v(types.Bool(true)), v(types.Int(1)), true},
		{"int=float below 1e6", v(types.Int(42)), v(types.Float(42)), true},
		{"int=float at 1e6 (rendered 1000000 vs 1e+06)", v(types.Int(1000000)), v(types.Float(1e6)), true},
		{"int=float at 1e15", v(types.Int(1e15)), v(types.Float(1e15)), true},
		{"int!=fractional float", v(types.Int(1)), v(types.Float(1.5)), false},
		{"float=float", v(types.Float(0.1)), v(types.Float(0.1)), true},
		{"close floats differ", v(types.Float(0.30000000000000004)), v(types.Float(0.3)), false},
		{"-0 = +0 (rendered -0 vs 0)", v(types.Float(negZero)), v(types.Float(0)), true},
		{"-0 = int 0", v(types.Float(negZero)), v(types.Int(0)), true},
		{"all NaNs are one key", v(types.Float(nan1)), v(types.Float(nan2)), true},
		{"NaN != number", v(types.Float(nan1)), v(types.Float(0)), false},
		{"inf = inf", v(types.Float(math.Inf(1))), v(types.Float(math.Inf(1))), true},
		{"inf != -inf", v(types.Float(math.Inf(1))), v(types.Float(math.Inf(-1))), false},
		{"float beyond int64 is not an int", v(types.Float(1 << 63)), v(types.Int(math.MinInt64)), false},
		{"string=string", v(types.Str("ab")), v(types.Str("ab")), true},
		{"empty string = empty string", v(types.Str("")), v(types.Str("")), true},
		{"string != number it renders as (both rendered 5)", v(types.Str("5")), v(types.Int(5)), false},
		{"NULL = NULL as a group", v(types.Null), v(types.Null), true},
		{"'NULL' is not NULL (both rendered NULL)", v(types.Str("NULL")), v(types.Null), false},
		{"'' is not NULL", v(types.Str("")), v(types.Null), false},
		{"0 is not NULL", v(types.Int(0)), v(types.Null), false},
		{"embedded NUL does not shift columns (both rendered a·b·c)",
			v(types.Str("a\x00b"), types.Str("c")), v(types.Str("a"), types.Str("b\x00c")), false},
		{"composite equal", v(types.Int(3), types.Str("x")), v(types.Float(3), types.Str("x")), true},
		{"composite differs in second", v(types.Int(3), types.Int(4)), v(types.Int(3), types.Int(5)), false},
		{"composite columns do not commute", v(types.Int(3), types.Int(4)), v(types.Int(4), types.Int(3)), false},
		{"composite NULL = NULL", v(types.Int(3), types.Null), v(types.Int(3), types.Null), true},
		{"three columns", v(types.Int(1), types.Date(2), types.Int(3)), v(types.Int(1), types.Int(2), types.Float(3)), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.a)
			hasNull := false
			for i := range tc.a {
				hasNull = hasNull || tc.a[i].IsNull() || tc.b[i].IsNull()
			}

			// The primitives: symmetric, and equal keys hash alike.
			eq := true
			for i := range tc.a {
				eq = eq && types.KeyEqual(tc.a[i], tc.b[i]) && types.KeyEqual(tc.b[i], tc.a[i])
			}
			if eq != tc.equal {
				t.Errorf("KeyEqual = %v, want %v", eq, tc.equal)
			}
			if tc.equal && hashValues(tc.a) != hashValues(tc.b) {
				t.Errorf("equal keys hash differently")
			}

			// The table, in both insertion orders (the first key decides
			// whether the table is still on its integer path).
			for _, pair := range [][2][]types.Value{{tc.a, tc.b}, {tc.b, tc.a}} {
				var ht hashTable
				ht.init(new(queryArena), n, 0)
				ht.insert(pair[0])
				id, added := ht.insert(pair[1])
				if added == tc.equal || (id == 0) != tc.equal {
					t.Errorf("table: second insert id=%d added=%v, want equal=%v", id, added, tc.equal)
				}
				if got := ht.find(pair[1]) >= 0; !got {
					t.Errorf("table: inserted key not found")
				}
			}

			// The operators. l holds a, r holds b, u holds both.
			db := keyDB(t, map[string][][]types.Value{
				"l": {append([]types.Value{}, tc.a...)},
				"r": {append([]types.Value{}, tc.b...)},
				"u": {append([]types.Value{}, tc.a...), append([]types.Value{}, tc.b...)},
			})
			wantJoin := 0
			if tc.equal && !hasNull { // NULL never matches in a join
				wantJoin = 1
			}
			if got := len(run(t, db, keyJoin("l", "r", n, n, n)).Rows); got != wantJoin {
				t.Errorf("hash join: %d rows, want %d", got, wantJoin)
			}
			wantGroups := 2
			if tc.equal {
				wantGroups = 1
			}
			for _, op := range []plan.OpType{plan.OpHashAggregate, plan.OpGroupAgg} {
				if got := len(run(t, db, keyAgg(op, "u", n, n)).Rows); got != wantGroups {
					t.Errorf("%s: %d groups, want %d", op, got, wantGroups)
				}
			}
			if n == 1 && !hasNull { // count(distinct c0); NULLs are not counted
				agg := &plan.Node{
					Op: plan.OpAggregate, Children: []*plan.Node{scanNode("u", 1)},
					Cols: make([]plan.Column, 1),
					Agg:  &plan.AggPayload{Aggs: []plan.AggSpec{{Func: plan.AggCount, Arg: icol(0), Distinct: true, K: types.KindInt}}},
				}
				if got := run(t, db, agg).Rows[0][0].I(); got != int64(wantGroups) {
					t.Errorf("count(distinct): %d, want %d", got, wantGroups)
				}
			}
		})
	}
}

// TestIndexLookupTypedKeys runs the same semantics through the storage
// index the executor's index scans probe.
func TestIndexLookupTypedKeys(t *testing.T) {
	rows := [][]types.Value{
		{types.Int(1000000), types.Str("a")},
		{types.Int(5), types.Str("b")},
		{types.Null, types.Str("c")},
	}
	db := keyDB(t, map[string][][]types.Value{"t": rows})
	idx := storage.BuildIndex("t_pkey", db.Tables["t"], []int{0})
	for _, tc := range []struct {
		key  types.Value
		want int // row offset, -1 for no match
	}{
		{types.Int(1000000), 0},
		{types.Float(1e6), 0},
		{types.Int(5), 1},
		{types.Str("5"), -1},
		{types.Float(5.5), -1},
		{types.Null, -1},
		{types.Str("NULL"), -1},
	} {
		got := idx.Lookup([]types.Value{tc.key})
		if tc.want < 0 && len(got) != 0 || tc.want >= 0 && (len(got) != 1 || int(got[0]) != tc.want) {
			t.Errorf("Lookup(%v %s) = %v, want offset %d", tc.key.Kind(), tc.key, got, tc.want)
		}
	}
}

// randKeyValue draws from a small pool that collides often and covers
// every representation: NULL, integer kinds, integer-valued, fractional,
// signed-zero and NaN floats, empty and NUL-bearing strings.
func randKeyValue(rng *rand.Rand, intsOnly bool) types.Value {
	if intsOnly {
		return types.Int(int64(rng.Intn(40)) * 32) // sparse low bits, like TPC-H order keys
	}
	switch rng.Intn(12) {
	case 0:
		return types.Null
	case 1:
		return types.Int(int64(rng.Intn(6)))
	case 2:
		return types.Date(int64(rng.Intn(6)))
	case 3:
		return types.Bool(rng.Intn(2) == 0)
	case 4:
		return types.Float(float64(rng.Intn(6)))
	case 5:
		return types.Float(float64(rng.Intn(6)) + 0.5)
	case 6:
		return types.Float(math.Copysign(0, -1))
	case 7:
		return types.Float(math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(3))))
	case 8:
		return types.Str("")
	case 9:
		return types.Str([]string{"a", "b", "a\x00b", "a\x00", "\x00a", "NULL", "0", "1"}[rng.Intn(8)])
	case 10:
		return types.Int(1000000 + int64(rng.Intn(3)))
	default:
		return types.Float(1e6 + float64(rng.Intn(3)))
	}
}

// modelKey is the reference model's canonical form of a key tuple, written
// independently of types.KeyEqual: length-prefixed, kind-tagged pieces.
// ok=false when the tuple holds a NULL.
func modelKey(key []types.Value) (s string, nonNull bool) {
	nonNull = true
	for _, v := range key {
		switch v.Kind() {
		case types.KindNull:
			nonNull = false
			s += "n;"
		case types.KindString:
			s += fmt.Sprintf("s%d:%s;", len(v.S()), v.S())
		case types.KindFloat:
			switch {
			case math.IsNaN(v.F()):
				s += "nan;"
			case v.F() == math.Trunc(v.F()) && math.Abs(v.F()) < 1e18:
				s += fmt.Sprintf("i%d;", int64(v.F()))
			default:
				s += fmt.Sprintf("f%x;", math.Float64bits(v.F()))
			}
		default:
			s += fmt.Sprintf("i%d;", v.I())
		}
	}
	return s, nonNull
}

// TestHashTableMatchesModel checks the table, and the join and aggregate
// built on it, against a map[string][]int reference over random typed
// tuples: same ids, same match sets in insertion order, same groups in
// first-appearance order — across the integer path, the general path, a
// demotion in mid-stream and several doublings.
func TestHashTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ncols := 1 + rng.Intn(4)
		// A third of the runs are all-integer (the fast path throughout),
		// a third mixed from the start, a third turn mixed half-way.
		mode := int(seed % 3)
		nBuild := 200 + rng.Intn(3000)
		nProbe := 300
		key := func(i, n int) []types.Value {
			intsOnly := mode == 0 || mode == 2 && i < n/2
			k := make([]types.Value, ncols)
			for c := range k {
				k[c] = randKeyValue(rng, intsOnly)
			}
			return k
		}

		model := map[string][]int{} // key → build row numbers, in insertion order
		var order []string          // keys in first-appearance order
		var ht hashTable
		ht.init(new(queryArena), ncols, 0)
		build := make([][]types.Value, nBuild)
		for i := range build {
			k := key(i, nBuild)
			build[i] = append(append([]types.Value{}, k...), types.Int(int64(i)))
			mk, _ := modelKey(k)
			if _, seen := model[mk]; !seen {
				order = append(order, mk)
			}
			model[mk] = append(model[mk], i)

			id, added := ht.insert(k)
			if int(id) >= len(order) || order[id] != mk || added != (len(model[mk]) == 1) {
				t.Fatalf("seed %d row %d: insert(%v) = %d,%v; model key %q", seed, i, k, id, added, mk)
			}
		}
		if int(ht.n) != len(order) {
			t.Fatalf("seed %d: %d entries, model has %d", seed, ht.n, len(order))
		}
		probe := make([][]types.Value, nProbe)
		for i := range probe {
			k := key(i, nProbe)
			if i%2 == 0 { // half the probes hit for sure
				k = append([]types.Value{}, build[rng.Intn(nBuild)][:ncols]...)
			}
			probe[i] = append(append([]types.Value{}, k...), types.Int(int64(i)))
			mk, _ := modelKey(k)
			id := ht.find(k)
			if _, present := model[mk]; present != (id >= 0) || present && order[id] != mk {
				t.Fatalf("seed %d: find(%v) = %d; model key %q present=%v", seed, k, id, mk, present)
			}
		}

		db := keyDB(t, map[string][][]types.Value{"build": build, "probe": probe})

		// Join: for each probe row in order, its matches in build order.
		var want [][2]int64
		for i, p := range probe {
			mk, nonNull := modelKey(p[:ncols])
			if !nonNull {
				continue
			}
			for _, b := range model[mk] {
				want = append(want, [2]int64{int64(i), int64(b)})
			}
		}
		got := run(t, db, keyJoin("probe", "build", ncols+1, ncols+1, ncols)).Rows
		if len(got) != len(want) {
			t.Fatalf("seed %d: join produced %d rows, model %d", seed, len(got), len(want))
		}
		for i, r := range got {
			if pair := [2]int64{r[ncols].I(), r[2*ncols+1].I()}; pair != want[i] {
				t.Fatalf("seed %d: join row %d is (probe %d, build %d), model (probe %d, build %d)",
					seed, i, pair[0], pair[1], want[i][0], want[i][1])
			}
		}

		// Aggregation: one row per model key, first appearance first, with
		// the first-seen key values and the group's size.
		groups := run(t, db, keyAgg(plan.OpHashAggregate, "build", ncols+1, ncols)).Rows
		if len(groups) != len(order) {
			t.Fatalf("seed %d: %d groups, model %d", seed, len(groups), len(order))
		}
		for i, g := range groups {
			first := build[model[order[i]][0]]
			for c := 0; c < ncols; c++ {
				if !types.Identical(g[c], first[c]) {
					t.Fatalf("seed %d: group %d key column %d is %v, first-seen row has %v", seed, i, c, g[c], first[c])
				}
			}
			if g[ncols].I() != int64(len(model[order[i]])) {
				t.Fatalf("seed %d: group %d counts %d rows, model %d", seed, i, g[ncols].I(), len(model[order[i]]))
			}
		}
	}
}

// TestHashTableHitsDoNotAllocate: a join probe and a group hit — the per-
// row operations — allocate nothing, on either key representation.
func TestHashTableHitsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  func(i int) []types.Value
	}{
		{"int", func(i int) []types.Value { return []types.Value{types.Int(int64(i)), types.Date(int64(i % 7))} }},
		{"general", func(i int) []types.Value {
			return []types.Value{types.Str("k" + strconv.Itoa(i)), types.Float(float64(i) + 0.5), types.Null}
		}},
	} {
		var ht hashTable
		ht.init(new(queryArena), len(tc.key(0)), 0)
		keys := make([][]types.Value, 1000)
		for i := range keys {
			keys[i] = tc.key(i)
			ht.insert(keys[i])
		}
		i := 0
		if n := testing.AllocsPerRun(500, func() {
			if ht.find(keys[i%len(keys)]) < 0 {
				t.Fatal("key lost")
			}
			if _, added := ht.insert(keys[(i*7)%len(keys)]); added {
				t.Fatal("hit reported as insert")
			}
			i++
		}); n != 0 {
			t.Errorf("%s keys: %v allocations per find+hit, want 0", tc.name, n)
		}
	}

	// The operator around the table: probing a built hash join.
	db := testDB(t)
	join, _, _ := hashJoinTree(plan.JoinInner)
	ctx := &execCtx{db: db, clock: noNoiseClock(), ectx: &plan.Ctx{}, compiled: map[plan.Scalar]evalFn{}, mem: new(queryArena)}
	left, err := build(ctx, join.Children[0], true)
	if err != nil {
		t.Fatal(err)
	}
	right, err := build(ctx, join.Children[1], false)
	if err != nil {
		t.Fatal(err)
	}
	h := &hashJoin{node: join, left: left, right: right, reuse: true}
	if err := h.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rows := db.Tables["t"].Rows
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		h.probe(ctx, rows.Row(i%rows.Len()))
		if want := 1 - i%2; len(h.curMatches) != want { // u holds the even keys below 100
			t.Fatalf("row %d: %d matches, want %d", i%rows.Len(), len(h.curMatches), want)
		}
		i++
	}); n != 0 {
		t.Errorf("hashJoin.probe: %v allocations per row, want 0", n)
	}
}

// TestHashSizingIgnoresWildEstimates: Est.Rows only picks a capped
// starting size, so a ten-row build side or a ten-group aggregate under an
// estimate of a million allocates kilobytes, not the megabytes a table
// presized for the estimate would.
func TestHashSizingIgnoresWildEstimates(t *testing.T) {
	rows := make([][]types.Value, 10)
	for i := range rows {
		rows[i] = []types.Value{types.Int(int64(i)), types.Int(int64(i))}
	}
	db := keyDB(t, map[string][][]types.Value{"l": rows, "r": rows})
	// The least of a few runs: under -race sync.Pool.Put drops one item in
	// four, and a Run that finds the pool empty allocates a fresh 320 kB
	// arena chunk, which is not what this test is about.
	allocated := func(root *plan.Node) uint64 {
		run(t, db, root) // compile expressions; the measured runs reuse them
		least := ^uint64(0)
		for i := 0; i < 4; i++ {
			clock := noNoiseClock()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(db, root, clock, Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	join := keyJoin("l", "r", 2, 2, 1)
	join.Children[1].Est.Rows = 1e6
	join.Children[1].Children[0].Est.Rows = 1e6
	agg := keyAgg(plan.OpHashAggregate, "l", 2, 1)
	agg.Est.Rows = 1e6
	for name, root := range map[string]*plan.Node{"hash join": join, "hash aggregate": agg} {
		if got := allocated(root); got > 16<<10 {
			t.Errorf("%s of 10 rows under Est.Rows=1e6 allocated %d bytes, want a few kB", name, got)
		}
	}
}
