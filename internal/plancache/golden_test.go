package plancache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"qpp/internal/plan"
	"qpp/internal/tpch"
)

// cachePlanGolden is the digest TestCachePlanGolden pins. A change meant
// to leave served plans alone must leave it alone.
const cachePlanGolden = "358e2f868bedf05cd8cc124312b7fcd87b634dda714149eb988f3100c2fd38bf"

// TestCachePlanGolden pins every plan Cache.Plan serves from a cache
// built the way serve.TrainSnapshot builds one (the 14 operator-level
// templates, 8 draws each): one SHA-256 over the outcome, the EXPLAIN
// and every node's estimate bits, for every training text (memo hits)
// and 20 fresh draws of each of the 18 templates (rebinds, and cold
// misses for the four templates the cache does not hold).
func TestCachePlanGolden(t *testing.T) {
	db := tpchDB(t)
	train, err := tpch.GenWorkload(tpch.OperatorLevelTemplates, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]string, len(train))
	for i, q := range train {
		queries[i] = q.SQL
	}
	cache, err := Build(db, queries, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.templates) != len(tpch.OperatorLevelTemplates) {
		t.Fatalf("cache holds %d templates, want %d", len(cache.templates), len(tpch.OperatorLevelTemplates))
	}
	for _, tmpl := range tpch.Templates {
		rng := rand.New(rand.NewSource(4000 + int64(tmpl)))
		for d := 0; d < 20; d++ {
			gq, err := tpch.GenQuery(tmpl, rng)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, gq.SQL)
		}
	}
	h := sha256.New()
	var buf [8]byte
	var outcomes [3]int
	for _, q := range queries {
		node, out, err := cache.Plan(q)
		if err != nil {
			t.Fatalf("%v\nsql: %s", err, q)
		}
		outcomes[out]++
		h.Write([]byte{byte(out)})
		h.Write([]byte(plan.Explain(node)))
		for _, b := range estBits(node) {
			binary.LittleEndian.PutUint64(buf[:], b)
			h.Write(buf[:])
		}
	}
	for out, n := range outcomes {
		if n == 0 {
			t.Fatalf("no request served with outcome %d: %v", out, outcomes)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cachePlanGolden {
		t.Fatalf("served plans moved: digest %s, want %s", got, cachePlanGolden)
	}
}
