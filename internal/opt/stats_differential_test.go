package opt

import (
	"math"
	"runtime"
	"testing"

	"qpp/internal/catalog"
	"qpp/internal/storage"
	"qpp/internal/tpch"
	"qpp/internal/types"
)

// The sketch-vs-exact ANALYZE differential suite: over every TPC-H
// table, the streaming-sketch statistics must track the exact oracle
// within documented tolerances, and — the whole-pipeline check — the
// planner must choose the same plan for all 18 templates with either
// set of statistics.
//
// Tolerances (each pinned by an assertion below):
//
//   - RowCount, Pages, AvgWidth, NullFrac: exact (none are estimated).
//   - Min / Max of numeric columns: exact (the quantile sketch tracks
//     true extremes on the side).
//   - NDV: relative error <= 5% (HLL's 3-sigma bound is 2.4%; 5% leaves
//     slack for the rounding at small counts).
//   - Histogram: |sketch CDF - exact CDF| <= 0.02 at every probed point
//     (the quantile sketch's rank-error budget is 1%).
//   - MCVs: every exact MCV with frequency >= 0.02 appears in the
//     sketch MCV list with |Δfreq| <= 0.01 (Count-Min overestimates by
//     at most e/width ≈ 0.13% of rows).

// planParityAllowlist names template/scale combinations where the
// sketch statistics are allowed to produce a different plan than the
// exact oracle, with the justification recorded. Any new divergence
// must be reviewed and either fixed or explicitly accepted here; an
// allowed divergence is still held to the cost-gap bound asserted in
// runPlanParity, so the allowlist cannot mask a genuine plan
// regression.
var planParityAllowlist = map[string]string{
	"t7@sf0.01": "join-association near-tie: l⋈o vs l⋈(s⋈n) first; chosen-plan costs 3946.8 vs 3945.5 (0.035%)",
	"t7@sf0.1":  "same near-tie as t7@sf0.01 at scale; chosen-plan costs 40027 vs 40010 (0.042%)",
	"t9@sf0.1":  "outer probe order swaps part/orders on an equal-cost association; chosen-plan costs within 0.001%",
}

// statsPair generates one database and returns it twice: as loaded
// (the production sketch ANALYZE) and as a view over the same tables
// and indexes whose statistics come from the exact oracle,
// catalog.AnalyzeRows — the reference this suite compares against.
func statsPair(t *testing.T, sf float64) (sketch, exact *storage.Database) {
	t.Helper()
	sketch, err := tpch.Generate(tpch.GenConfig{ScaleFactor: sf, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	view := *sketch
	view.Stats = make(map[string]*catalog.TableStats, len(sketch.Tables))
	for name, tbl := range sketch.Tables {
		view.Stats[name] = catalog.AnalyzeRows(tbl.Meta, tbl.Rows)
	}
	return sketch, &view
}

func runStatsDifferential(t *testing.T, sf float64) {
	skDB, exDB := statsPair(t, sf)
	for name, exTS := range exDB.Stats {
		skTS := skDB.Stats[name]
		if skTS == nil {
			t.Fatalf("%s: no sketch stats", name)
		}
		if !skTS.Sketched || exTS.Sketched {
			t.Fatalf("%s: Sketched flags wrong (sketch=%v exact=%v)", name, skTS.Sketched, exTS.Sketched)
		}
		if skTS.RowCount != exTS.RowCount || skTS.Pages != exTS.Pages || skTS.AvgWidth != exTS.AvgWidth {
			t.Fatalf("%s: table scalars diverge: %+v vs %+v", name, skTS, exTS)
		}
		for ci := range exTS.Columns {
			exC, skC := &exTS.Columns[ci], &skTS.Columns[ci]
			col := name + "." + exC.Name
			if skC.Name != exC.Name || skC.Kind != exC.Kind {
				t.Fatalf("%s: column identity diverges", col)
			}
			if skC.NullFrac != exC.NullFrac || skC.AvgWidth != exC.AvgWidth {
				t.Fatalf("%s: null frac / width diverge: %v/%v vs %v/%v",
					col, skC.NullFrac, skC.AvgWidth, exC.NullFrac, exC.AvgWidth)
			}
			// NDV within 5% relative.
			if exC.NDV > 0 {
				if rel := math.Abs(skC.NDV-exC.NDV) / exC.NDV; rel > 0.05 {
					t.Errorf("%s: NDV %v vs exact %v (rel %.3f > 0.05)", col, skC.NDV, exC.NDV, rel)
				}
			} else if skC.NDV != 0 {
				t.Errorf("%s: NDV %v for all-null column", col, skC.NDV)
			}
			if exC.Kind != types.KindString && exC.NDV > 0 {
				if skC.Min != exC.Min || skC.Max != exC.Max {
					t.Errorf("%s: min/max %v..%v vs exact %v..%v", col, skC.Min, skC.Max, exC.Min, exC.Max)
				}
				// Histogram CDF within 0.02 at 50 evenly spaced probes.
				if len(exC.Bounds) >= 2 && len(skC.Bounds) >= 2 {
					for i := 0; i <= 50; i++ {
						x := exC.Min + (exC.Max-exC.Min)*float64(i)/50
						d := math.Abs(skC.HistogramSelectivityLE(x) - exC.HistogramSelectivityLE(x))
						if d > 0.02 {
							t.Errorf("%s: CDF delta %.4f > 0.02 at x=%v", col, d, x)
							break
						}
					}
				}
			}
			// Heavy exact MCVs present in the sketch list, close frequency.
			skFreq := map[string]float64{}
			for _, m := range skC.MCVs {
				skFreq[m.Key] = m.Freq
			}
			for _, m := range exC.MCVs {
				if m.Freq < 0.02 {
					continue
				}
				got, ok := skFreq[m.Key]
				if !ok {
					t.Errorf("%s: heavy MCV %q (freq %.4f) missing from sketch list", col, m.Key, m.Freq)
					continue
				}
				if math.Abs(got-m.Freq) > 0.01 {
					t.Errorf("%s: MCV %q freq %v vs exact %v", col, m.Key, got, m.Freq)
				}
			}
		}
	}
}

func TestSketchVsExactStatsSF001(t *testing.T) {
	runStatsDifferential(t, 0.01)
}

func TestSketchVsExactStatsSF01(t *testing.T) {
	if testing.Short() {
		t.Skip("sf 0.1 differential is a long test")
	}
	runStatsDifferential(t, 0.1)
}

// allocsOf reports the heap objects and bytes fn allocates: cumulative
// counters, which repeat from run to run and which a collection during
// fn does not lower.
func allocsOf(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestSketchAnalyzeAllocatesATenthOfExact pins what the sketch pass is
// for: bounded memory. One pass over lineitem must allocate at most a
// tenth of the objects and of the bytes the exact oracle does.
// The sketches cost a fixed 3.6 MB or so per table whatever its size, so
// the ratio grows with the table: measured at this test's SF 0.03 (180k
// rows) 29.6k vs 2.38M objects and 4.7 MB vs 74 MB (80x, 15.7x); at SF
// 0.01 the bytes are only 7.7x apart, at SF 0.1 50k vs 8.1M objects and
// 5 MB vs 247 MB.
func TestSketchAnalyzeAllocatesATenthOfExact(t *testing.T) {
	db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: 0.03, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	li := db.Tables["lineitem"]
	skObj, skBytes := allocsOf(func() { catalog.AnalyzeRowsSketch(li.Meta, li.Rows) })
	exObj, exBytes := allocsOf(func() { catalog.AnalyzeRows(li.Meta, li.Rows) })
	t.Logf("sketch %d objects / %d bytes, exact %d objects / %d bytes", skObj, skBytes, exObj, exBytes)
	if 10*skObj > exObj {
		t.Errorf("sketch ANALYZE allocated %d objects, exact %d: want at most a tenth", skObj, exObj)
	}
	if 10*skBytes > exBytes {
		t.Errorf("sketch ANALYZE allocated %d bytes, exact %d: want at most a tenth", skBytes, exBytes)
	}
}

// runPlanParity plans every TPC-H template against both databases and
// compares plan structure (root signatures).
func runPlanParity(t *testing.T, sf float64, tag string) {
	skDB, exDB := statsPair(t, sf)
	queries, err := tpch.GenWorkload(tpch.Templates, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		skPlan, err := PlanSQL(skDB, q.SQL)
		if err != nil {
			t.Fatalf("t%d sketch plan: %v", q.Template, err)
		}
		exPlan, err := PlanSQL(exDB, q.SQL)
		if err != nil {
			t.Fatalf("t%d exact plan: %v", q.Template, err)
		}
		if skSig, exSig := skPlan.Signature(), exPlan.Signature(); skSig != exSig {
			key := tpchKey(q.Template, tag)
			if why, ok := planParityAllowlist[key]; ok {
				// Allowed divergences must still be near-ties: the two
				// chosen plans' costs may not drift more than 1% apart.
				gap := math.Abs(skPlan.Est.TotalCost-exPlan.Est.TotalCost) /
					math.Max(exPlan.Est.TotalCost, 1)
				if gap > 0.01 {
					t.Errorf("t%d: allowlisted divergence is no longer a near-tie (cost gap %.4f > 0.01); re-review %q",
						q.Template, gap, key)
				}
				t.Logf("t%d: plan divergence allowed (%s)", q.Template, why)
				continue
			}
			t.Errorf("t%d: sketch stats changed the plan (add %q to planParityAllowlist only with justification):\nsketch: %s\nexact:  %s",
				q.Template, key, skSig, exSig)
		}
	}
}

func tpchKey(template int, tag string) string {
	return "t" + itoa(template) + "@" + tag
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestPlanParitySketchVsExactSF001(t *testing.T) {
	runPlanParity(t, 0.01, "sf0.01")
}

func TestPlanParitySketchVsExactSF01(t *testing.T) {
	if testing.Short() {
		t.Skip("sf 0.1 parity is a long test")
	}
	runPlanParity(t, 0.1, "sf0.1")
}
