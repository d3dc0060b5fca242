package opt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qpp/internal/plan"
	"qpp/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite testdata/plan_digest.golden")

// planDigest hashes a plan's EXPLAIN text and the bits of every node's
// estimates, init-plans and sub-plans included, to 16 hex digits.
func planDigest(root *plan.Node) string {
	h := sha256.New()
	h.Write([]byte(plan.Explain(root)))
	var buf [8]byte
	root.Walk(func(n *plan.Node) {
		for _, f := range [...]float64{n.Est.StartupCost, n.Est.TotalCost, n.Est.Rows, n.Est.Width, n.Est.Pages, n.Est.Selectivity} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPlanDigestGolden pins every plan the optimizer makes for ten draws
// of each of the 22 templates at SF 0.005: one line per (template, draw)
// holding planDigest. A change that is meant to leave plans alone must
// leave this file alone; one that moves a plan regenerates it with
//
//	go test ./internal/opt -run TestPlanDigestGolden -update
func TestPlanDigestGolden(t *testing.T) {
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	var queries []string
	for _, tmpl := range append(append([]int(nil), tpch.Templates...), tpch.ExtraTemplates...) {
		rng := rand.New(rand.NewSource(1))
		for draw := 0; draw < 10; draw++ {
			gq, err := tpch.GenQuery(tmpl, rng)
			if err != nil {
				t.Fatal(err)
			}
			node, err := PlanSQL(db, gq.SQL)
			if err != nil {
				t.Fatalf("template %d draw %d: %v", tmpl, draw, err)
			}
			fmt.Fprintf(&got, "q%d draw %d %s\n", tmpl, draw, planDigest(node))
			queries = append(queries, gq.SQL)
		}
	}
	path := filepath.Join("testdata", "plan_digest.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("plan changed: got %q, want %q\nsql: %s", gotLines[i], wantLines[i], queries[i])
		}
	}
}
