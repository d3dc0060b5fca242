package opt

import (
	"math"

	"qpp/internal/plan"
)

// PostgreSQL's planner cost constants. The optimizer costs plans with
// these abstract units; the virtual device clock measures "real" seconds
// with a different (richer) model — the gap between the two is exactly
// what Section 5.2 of the paper demonstrates with Figure 5.
const (
	seqPageCost       = 1.0
	randomPageCost    = 4.0
	cpuTupleCost      = 0.01
	cpuIndexTupleCost = 0.005
	cpuOperatorCost   = 0.0025
)

// costSeqScan fills the estimate for a sequential scan node.
func (p *planner) costSeqScan(n *plan.Node, tableRows, tablePages, sel, filterOps float64) {
	n.Est.Pages = tablePages
	n.Est.Rows = math.Max(1, tableRows*sel)
	n.Est.Selectivity = sel
	run := seqPageCost*tablePages + cpuTupleCost*tableRows + cpuOperatorCost*filterOps*tableRows
	n.Est.StartupCost = 0
	n.Est.TotalCost = run
	n.Est.Width = n.Width()
}

// est is the part of a plan.Estimate that join costing reads and writes.
// Every join formula is a pure function over it, so the join-order search
// (which builds no nodes, see joinorder.go) and the node-filling cost*
// methods share one definition of each number.
type est struct{ rows, width, startup, total float64 }

func estOf(n *plan.Node) est {
	return est{n.Est.Rows, n.Est.Width, n.Est.StartupCost, n.Est.TotalCost}
}

func (e est) fill(n *plan.Node, sel float64) {
	n.Est.Rows, n.Est.Width, n.Est.Selectivity = e.rows, e.width, sel
	n.Est.StartupCost, n.Est.TotalCost = e.startup, e.total
}

// indexScanEst estimates an index scan expected to fetch matchRows of a
// table clustered on the index key; pages is the heap pages it touches.
func indexScanEst(matchRows, tablePages, sel, width float64) (e est, pages float64) {
	fetched := math.Max(1, matchRows)
	// Heap pages touched, assuming index-order clustering.
	pages = math.Min(tablePages, fetched/4+2)
	e = est{rows: math.Max(1, matchRows*sel), width: width}
	e.total = randomPageCost*2 + // descent
		randomPageCost*pages + cpuIndexTupleCost*fetched + cpuTupleCost*fetched
	return e, pages
}

// costIndexScan fills the estimate for an index scan (see indexScanEst).
func (p *planner) costIndexScan(n *plan.Node, matchRows, tablePages, sel float64) {
	e, pages := indexScanEst(matchRows, tablePages, sel, n.Width())
	e.fill(n, sel)
	n.Est.Pages = pages
}

// costSort fills the estimate for a sort over its child.
func (p *planner) costSort(n *plan.Node) {
	c := n.Children[0]
	rows := math.Max(1, c.Est.Rows)
	comp := 2 * cpuOperatorCost * rows * math.Log2(rows+1)
	n.Est.Rows = c.Est.Rows
	n.Est.Width = c.Est.Width
	n.Est.Selectivity = 1
	n.Est.StartupCost = c.Est.TotalCost + comp
	n.Est.TotalCost = n.Est.StartupCost + cpuTupleCost*rows
	// External sort I/O when the input exceeds work_mem.
	bytes := rows * math.Max(8, c.Est.Width)
	if bytes > p.workBytes() {
		pages := bytes / 8192
		n.Est.Pages = pages
		n.Est.StartupCost += 2 * seqPageCost * pages
		n.Est.TotalCost += 2 * seqPageCost * pages
	}
}

func materializeEst(c est) est {
	return est{c.rows, c.width, c.startup, c.total + 2*cpuOperatorCost*math.Max(1, c.rows)}
}

// rescanCost is the cost of re-reading a nested loop's inner side.
func rescanCost(op plan.OpType, inner est) float64 {
	switch op {
	case plan.OpMaterialize, plan.OpSort:
		return cpuOperatorCost * math.Max(1, inner.rows)
	default:
		return inner.total
	}
}

// costLimit fills the estimate for LIMIT n: a fraction of the child cost.
func (p *planner) costLimit(n *plan.Node) {
	c := n.Children[0]
	frac := 1.0
	if c.Est.Rows > 0 {
		frac = math.Min(1, float64(n.LimitN)/c.Est.Rows)
	}
	n.Est.Rows = math.Min(float64(n.LimitN), math.Max(1, c.Est.Rows))
	n.Est.Width = c.Est.Width
	n.Est.Selectivity = 1
	n.Est.StartupCost = c.Est.StartupCost
	n.Est.TotalCost = c.Est.StartupCost + (c.Est.TotalCost-c.Est.StartupCost)*frac
}

// costAggregate fills the estimate for an aggregation node.
func (p *planner) costAggregate(n *plan.Node, groups float64) {
	c := n.Children[0]
	rows := math.Max(1, c.Est.Rows)
	aggOps := float64(len(n.Aggs)+len(n.GroupBy)) * rows * cpuOperatorCost
	n.Est.Rows = math.Max(1, groups)
	n.Est.Selectivity = 1
	n.Est.Width = n.Width()
	switch n.Op {
	case plan.OpGroupAgg:
		n.Est.StartupCost = c.Est.StartupCost
		n.Est.TotalCost = c.Est.TotalCost + aggOps + cpuTupleCost*groups
	default: // HashAggregate, Aggregate
		n.Est.StartupCost = c.Est.TotalCost + aggOps
		n.Est.TotalCost = n.Est.StartupCost + cpuTupleCost*groups
	}
}

// costResult fills the estimate for a projection/result node.
func (p *planner) costResult(n *plan.Node, projOps, sel float64) {
	c := n.Children[0]
	rows := math.Max(1, c.Est.Rows)
	n.Est.Rows = math.Max(1, c.Est.Rows*sel)
	n.Est.Selectivity = sel
	n.Est.Width = n.Width()
	n.Est.StartupCost = c.Est.StartupCost
	n.Est.TotalCost = c.Est.TotalCost + cpuOperatorCost*projOps*rows + cpuTupleCost*rows
}

func hashEst(c est) est {
	startup := c.total + cpuOperatorCost*math.Max(1, c.rows)
	return est{c.rows, c.width, startup, startup}
}

// costHash fills the estimate for a Hash build node.
func (p *planner) costHash(n *plan.Node) {
	hashEst(estOf(n.Children[0])).fill(n, 1)
}

// hashJoinEst estimates a hash join of probe side l with Hash build node
// h; joinRows is the estimated output cardinality, width the output row
// width. spillPages is non-zero for a batched (spilling) join, whose I/O
// is in the total.
func hashJoinEst(l, h est, joinRows, width, workBytes float64) (e est, spillPages float64) {
	e = est{rows: math.Max(1, joinRows), width: width, startup: h.total + l.startup}
	e.total = e.startup +
		(l.total - l.startup) +
		cpuOperatorCost*math.Max(1, l.rows) + cpuTupleCost*math.Max(1, joinRows)
	if buildBytes := math.Max(1, h.rows) * math.Max(8, h.width); buildBytes > workBytes {
		spillPages = buildBytes / 8192
		e.total += 2 * seqPageCost * spillPages
	}
	return e, spillPages
}

func (p *planner) workBytes() float64 { return float64(p.workMemPages) * 8192 }

// costHashJoin fills the estimate for a hash join whose right child is the
// Hash build node.
func (p *planner) costHashJoin(n *plan.Node, joinRows float64) {
	e, spillPages := hashJoinEst(estOf(n.Children[0]), estOf(n.Children[1]), joinRows, n.Width(), p.workBytes())
	e.fill(n, 1)
	if spillPages > 0 {
		n.Est.Pages = spillPages
	}
}

// nestedLoopEst estimates a nested loop that runs inner side r once and
// re-reads it at cost rescan for every further outer row.
func nestedLoopEst(l, r est, rescan, joinRows, width float64) est {
	outerRows := math.Max(1, l.rows)
	return est{rows: math.Max(1, joinRows), width: width, startup: l.startup + r.startup,
		total: l.total + r.total +
			(outerRows-1)*rescan +
			cpuTupleCost*outerRows*math.Max(1, r.rows)}
}

// indexLoopEst estimates a nested loop whose inner side is a parameterized
// index scan: idx is the cost of one lookup, paid per outer row.
func indexLoopEst(l, idx est, joinRows, width float64) est {
	return est{rows: math.Max(1, joinRows), width: width, startup: l.startup,
		total: l.total +
			math.Max(1, l.rows)*idx.total +
			cpuTupleCost*math.Max(1, joinRows)}
}

func mergeJoinEst(l, r est, joinRows, width float64) est {
	return est{rows: math.Max(1, joinRows), width: width, startup: l.startup + r.startup,
		total: l.total + r.total +
			cpuOperatorCost*(math.Max(1, l.rows)+math.Max(1, r.rows)) +
			cpuTupleCost*math.Max(1, joinRows)}
}

// costSubqueryScan fills the estimate for a derived-table scan.
func (p *planner) costSubqueryScan(n *plan.Node, sel, filterOps float64) {
	c := n.Children[0]
	rows := math.Max(1, c.Est.Rows)
	n.Est.Rows = math.Max(1, c.Est.Rows*sel)
	n.Est.Selectivity = sel
	n.Est.Width = c.Est.Width
	n.Est.StartupCost = c.Est.StartupCost
	n.Est.TotalCost = c.Est.TotalCost + (cpuTupleCost+cpuOperatorCost*filterOps)*rows
}
