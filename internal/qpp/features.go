// Package qpp implements the paper's contribution: learning-based query
// performance prediction at plan, operator, hybrid and online granularity.
//
// All models consume only static features — the optimizer's estimates
// exposed by EXPLAIN (Tables 1 and 2 of the paper) — plus observed
// performance values from an executed training workload. Plan-level models
// map a whole (sub-)plan's feature vector to a latency with one SVR;
// operator-level models learn per-operator-type start-time and run-time
// models composed bottom-up over arbitrary plans; the hybrid method
// (Algorithm 1) covers high-error sub-plans with materialized plan-level
// models chosen by size/frequency/error strategies; online modeling builds
// query-specific plan-level models at prediction time.
package qpp

import (
	"fmt"

	"qpp/internal/plan"
)

// QueryRecord is one executed query: its instrumented plan and observed
// latency, the unit of training and test data throughout this package.
type QueryRecord struct {
	Template int
	SQL      string
	Root     *plan.Node
	// Time is the observed (virtual) execution latency in seconds.
	Time float64
}

// FeatureMode selects whether features come from optimizer estimates
// (available before execution — the practical configuration) or from
// observed actual values (the paper's actual/actual oracle in Figure 7).
type FeatureMode int

const (
	// FeatEstimates uses optimizer estimates (cost, rows, pages, widths).
	FeatEstimates FeatureMode = iota
	// FeatActuals substitutes observed rows/pages for the estimates.
	FeatActuals
)

// planFeatureNames is the Table-1 feature list: plan aggregates first,
// then per-operator-type count and output-rows features.
var planFeatureNames = func() []string {
	names := []string{
		"p_tot_cost", "p_st_cost", "p_rows", "p_width",
		"op_count", "row_count", "byte_count",
	}
	for _, op := range plan.AllOpTypes {
		names = append(names, string(op)+"_cnt", string(op)+"_rows")
	}
	return names
}()

// PlanFeatureNames returns the names of the plan-level feature vector, in
// order (Table 1 of the paper).
func PlanFeatureNames() []string { return append([]string(nil), planFeatureNames...) }

// NumPlanFeatures is the plan-level feature vector length.
func NumPlanFeatures() int { return len(planFeatureNames) }

// actualRows returns the observed output rows per loop, PostgreSQL's
// EXPLAIN ANALYZE convention — an operator rescanned N times reports its
// per-scan output, which is what the estimate predicts, not the N-fold
// accumulated total.
func actualRows(n *plan.Node) float64 {
	loops := n.Act.Loops
	if loops < 1 {
		loops = 1
	}
	return n.Act.Rows / float64(loops)
}

// actualPages returns the observed pages read per loop.
func actualPages(n *plan.Node) float64 {
	loops := n.Act.Loops
	if loops < 1 {
		loops = 1
	}
	return n.Act.Pages / float64(loops)
}

// PlanFeatures extracts the Table-1 feature vector of the sub-plan rooted
// at root. With FeatActuals, observed per-loop row counts replace the
// estimated ones (costs and widths remain optimizer artifacts — there is
// no "actual" cost). Only the operator tree is traversed; init-/sub-plan
// features are folded into the owning tree's totals.
func PlanFeatures(root *plan.Node, mode FeatureMode) []float64 {
	rows := func(n *plan.Node) float64 {
		if mode == FeatActuals && n.Act.Executed {
			return actualRows(n)
		}
		return n.Est.Rows
	}
	f := make([]float64, len(planFeatureNames))
	f[0] = root.Est.TotalCost
	f[1] = root.Est.StartupCost
	f[2] = rows(root)
	f[3] = root.Est.Width

	opIdx := map[plan.OpType]int{}
	for i, op := range plan.AllOpTypes {
		opIdx[op] = 7 + 2*i
	}
	var visit func(n *plan.Node)
	visit = func(n *plan.Node) {
		f[4]++ // op_count
		out := rows(n)
		f[5] += out
		f[6] += out * n.Est.Width
		for _, c := range n.Children {
			in := rows(c)
			f[5] += in
			f[6] += in * c.Est.Width
		}
		if base, ok := opIdx[n.Op]; ok {
			f[base]++
			f[base+1] += out
		}
		for _, c := range n.Children {
			visit(c)
		}
		for _, ip := range n.InitPlans {
			visit(ip)
		}
		for _, sp := range n.SubPlans {
			visit(sp)
		}
	}
	visit(root)
	return f
}

// opFeatureNames is the Table-2 per-operator feature list.
var opFeatureNames = []string{"np", "nt", "nt1", "nt2", "sel", "st1", "rt1", "st2", "rt2"}

// NumOpFeatures is the operator-level feature vector length.
func NumOpFeatures() int { return len(opFeatureNames) }

// OpFeatures extracts the Table-2 feature vector for one operator. Child
// start/run times are supplied by the caller: observed values during
// training, model predictions (or oracle actuals) during testing.
func OpFeatures(n *plan.Node, mode FeatureMode, st1, rt1, st2, rt2 float64) []float64 {
	f := make([]float64, len(opFeatureNames))
	if mode == FeatActuals && n.Act.Executed {
		f[0] = actualPages(n)
		f[1] = actualRows(n)
		if len(n.Children) > 0 {
			f[2] = actualRows(n.Children[0])
		}
		if len(n.Children) > 1 {
			f[3] = actualRows(n.Children[1])
		}
	} else {
		f[0] = n.Est.Pages
		f[1] = n.Est.Rows
		if len(n.Children) > 0 {
			f[2] = n.Children[0].Est.Rows
		}
		if len(n.Children) > 1 {
			f[3] = n.Children[1].Est.Rows
		}
	}
	f[4] = n.Est.Selectivity
	f[5], f[6], f[7], f[8] = st1, rt1, st2, rt2
	return f
}

// Actual start/run observables of a node, used as training targets.
func nodeTimes(n *plan.Node) (st, rt float64) { return n.Act.StartTime, n.Act.RunTime }

// validateRecords rejects empty or un-executed training data early.
func validateRecords(recs []*QueryRecord) error {
	if len(recs) == 0 {
		return fmt.Errorf("qpp: empty training set")
	}
	for i, r := range recs {
		if r.Root == nil {
			return fmt.Errorf("qpp: record %d has no plan", i)
		}
		if !r.Root.Act.Executed {
			return fmt.Errorf("qpp: record %d (template %d) was not executed", i, r.Template)
		}
	}
	return nil
}
