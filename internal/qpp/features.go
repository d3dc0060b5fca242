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

// planOpSlot maps an operator type to its _cnt feature's index in the
// Table-1 vector (its _rows feature follows it).
var planOpSlot = func() map[plan.OpType]int {
	m := make(map[plan.OpType]int, len(plan.AllOpTypes))
	for i, op := range plan.AllOpTypes {
		m[op] = 7 + 2*i
	}
	return m
}()

// PlanFeatures extracts the Table-1 feature vector of the sub-plan rooted
// at root. With FeatActuals, observed per-loop row counts replace the
// estimated ones (costs and widths remain optimizer artifacts — there is
// no "actual" cost). Only the operator tree is traversed; init-/sub-plan
// features are folded into the owning tree's totals.
func PlanFeatures(root *plan.Node, mode FeatureMode) []float64 {
	return planFeatures(make([]float64, len(planFeatureNames)), root, mode)
}

// planFeatures is PlanFeatures into f, which must be zero and
// NumPlanFeatures long.
func planFeatures(f []float64, root *plan.Node, mode FeatureMode) []float64 {
	f[0] = root.Est.TotalCost
	f[1] = root.Est.StartupCost
	f[2] = featRows(root, mode)
	f[3] = root.Est.Width
	addPlanFeatures(f, root, mode)
	return f
}

// featRows is a node's output rows as mode reads them.
func featRows(n *plan.Node, mode FeatureMode) float64 {
	if mode == FeatActuals && n.Act.Executed {
		return actualRows(n)
	}
	return n.Est.Rows
}

// addPlanFeatures adds the counts and row sums of the tree under n to f.
func addPlanFeatures(f []float64, n *plan.Node, mode FeatureMode) {
	f[4]++ // op_count
	out := featRows(n, mode)
	f[5] += out
	f[6] += out * n.Est.Width
	for _, c := range n.Children {
		in := featRows(c, mode)
		f[5] += in
		f[6] += in * c.Est.Width
	}
	if base, ok := planOpSlot[n.Op]; ok {
		f[base]++
		f[base+1] += out
	}
	for _, c := range n.Children {
		addPlanFeatures(f, c, mode)
	}
	for _, ip := range n.InitPlans {
		addPlanFeatures(f, ip, mode)
	}
	for _, sp := range n.SubPlans {
		addPlanFeatures(f, sp, mode)
	}
}

// opFeatureNames is the Table-2 per-operator feature list.
var opFeatureNames = [...]string{"np", "nt", "nt1", "nt2", "sel", "st1", "rt1", "st2", "rt2"}

// NumOpFeatures is the operator-level feature vector length.
func NumOpFeatures() int { return len(opFeatureNames) }

// OpFeatures extracts the Table-2 feature vector for one operator. Child
// start/run times are supplied by the caller: observed values during
// training, model predictions (or oracle actuals) during testing.
func OpFeatures(n *plan.Node, mode FeatureMode, st1, rt1, st2, rt2 float64) []float64 {
	var f [len(opFeatureNames)]float64
	opFeatures(&f, n, mode, st1, rt1, st2, rt2)
	return f[:]
}

// opFeatures is OpFeatures into f.
func opFeatures(f *[len(opFeatureNames)]float64, n *plan.Node, mode FeatureMode, st1, rt1, st2, rt2 float64) {
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
