package plan

import (
	"fmt"

	"qpp/internal/types"
)

// OpType names a physical operator, using PostgreSQL's EXPLAIN vocabulary
// so the paper's feature names (<operator_name>_cnt, <operator_name>_rows)
// carry over directly.
type OpType string

// Physical operator types.
const (
	OpSeqScan       OpType = "Seq Scan"
	OpIndexScan     OpType = "Index Scan"
	OpSort          OpType = "Sort"
	OpLimit         OpType = "Limit"
	OpMaterialize   OpType = "Materialize"
	OpNestedLoop    OpType = "Nested Loop"
	OpHashJoin      OpType = "Hash Join"
	OpHashSemiJoin  OpType = "Hash Semi Join"
	OpHashAntiJoin  OpType = "Hash Anti Join"
	OpMergeJoin     OpType = "Merge Join"
	OpHash          OpType = "Hash"
	OpHashAggregate OpType = "HashAggregate"
	OpGroupAgg      OpType = "GroupAggregate"
	OpAggregate     OpType = "Aggregate"
	OpResult        OpType = "Result"
	OpSubqueryScan  OpType = "Subquery Scan"
)

// AllOpTypes lists every operator type, fixing the order of the
// per-operator-type features in plan-level models.
var AllOpTypes = []OpType{
	OpSeqScan, OpIndexScan, OpSort, OpLimit, OpMaterialize, OpNestedLoop,
	OpHashJoin, OpHashSemiJoin, OpHashAntiJoin, OpMergeJoin, OpHash,
	OpHashAggregate, OpGroupAgg, OpAggregate, OpResult, OpSubqueryScan,
}

// JoinKind distinguishes join semantics on a join node.
type JoinKind int

const (
	// JoinInner keeps matching pairs.
	JoinInner JoinKind = iota
	// JoinLeft keeps all left rows, null-extending on no match.
	JoinLeft
	// JoinSemi keeps left rows with at least one match.
	JoinSemi
	// JoinAnti keeps left rows with no match.
	JoinAnti
)

// String names the join kind for EXPLAIN.
func (j JoinKind) String() string {
	switch j {
	case JoinLeft:
		return "Left"
	case JoinSemi:
		return "Semi"
	case JoinAnti:
		return "Anti"
	default:
		return "Inner"
	}
}

// Column describes one output column of a node.
type Column struct {
	Name string
	K    types.Kind
	// Width is the estimated average width in bytes.
	Width float64
}

// Estimates holds the optimizer's annotations, the source of all static
// query features (Tables 1 and 2 of the paper).
type Estimates struct {
	StartupCost float64 // cost to produce the first row
	TotalCost   float64 // cost to produce all rows
	Rows        float64 // estimated output rows
	Width       float64 // estimated average output row width (bytes)
	Pages       float64 // estimated I/O in pages for this operator itself
	Selectivity float64 // estimated selectivity of this operator's predicate(s), 1 if none
}

// Actuals holds the executor's measurements in virtual seconds. Times are
// inclusive of the sub-plan rooted at the node, matching the paper's
// start-time / run-time semantics.
type Actuals struct {
	Executed  bool
	StartTime float64 // virtual time until the first output tuple
	RunTime   float64 // total virtual time for the sub-plan rooted here
	Rows      float64 // rows emitted (summed over rescans)
	Pages     float64 // pages this operator itself read (scans, spills)
	Loops     int     // number of (re)scans
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggAvg
	AggCount
	AggMin
	AggMax
)

var aggNames = [...]string{"sum", "avg", "count", "min", "max"}

// String names the aggregate function.
func (f AggFunc) String() string { return aggNames[f] }

// AggSpec is one aggregate computation: Func over Arg (nil for count(*));
// Distinct deduplicates input values before accumulation.
type AggSpec struct {
	Func     AggFunc
	Arg      Scalar
	Distinct bool
	K        types.Kind // result kind
}

// String renders the aggregate for EXPLAIN.
func (a AggSpec) String() string {
	if a.Arg == nil {
		return a.Func.String() + "(*)"
	}
	d := ""
	if a.Distinct {
		d = "distinct "
	}
	return a.Func.String() + "(" + d + a.Arg.String() + ")"
}

// SortKey is one ORDER BY key over the child's output columns.
type SortKey struct {
	Col  int
	Desc bool
}

// Node is one operator in a physical plan tree. A single struct carries
// the payload of every operator type; only the fields relevant to Op are
// set. The root node additionally owns the query's init-plans, correlated
// sub-plans, and the parameter slot count.
type Node struct {
	Op       OpType
	Children []*Node
	Cols     []Column

	Est Estimates
	Act Actuals

	// Scan payload.
	Table string
	Alias string
	Index string
	// LookupExprs parameterize an index scan from the *outer* row of the
	// enclosing nested loop (PostgreSQL's parameterized inner indexscan).
	LookupExprs []Scalar
	// LookupConsts are constant index key values for standalone lookups.
	LookupConsts []Scalar

	// Filter applies to output rows (scan filters, WHERE residuals, HAVING).
	Filter Scalar

	// Join payload.
	JoinType   JoinKind
	HashKeysL  []Scalar // bound against the left child schema
	HashKeysR  []Scalar // bound against the right child schema
	MergeKeysL []int    // sorted-column ordinals for merge join
	MergeKeysR []int
	JoinFilter Scalar // ON residual, bound against concatenated schema

	// Aggregation payload.
	GroupBy []Scalar
	Aggs    []AggSpec

	// Projection payload.
	Projs []Scalar

	// Sort payload.
	SortKeys []SortKey

	// Limit payload.
	LimitN int

	// Root-only payload.
	InitPlans []*Node // uncorrelated sub-plans, run once before the query
	// InitPlanSlots[i] is the parameter slot receiving InitPlans[i]'s value.
	InitPlanSlots []int
	SubPlans      []*Node // correlated sub-plans, run per evaluation
	// SubPlanArgSlots[i] lists the parameter slots sub-plan i's arguments
	// are bound to, in argument order.
	SubPlanArgSlots [][]int
	NumParams       int

	// ExecCache holds executor-private state that survives across Runs of
	// this plan tree (compiled expression closures, today). It is owned by
	// the executor and carries no locking: a plan tree must not be shared
	// between concurrent Runs, which the executor's concurrency contract
	// already requires. Root-only.
	ExecCache any
}

// Width returns the estimated row width from the column metadata.
func (n *Node) Width() float64 {
	var w float64
	for _, c := range n.Cols {
		w += c.Width
	}
	return w
}

// Size returns the number of operators in the sub-plan rooted at n
// (excluding init-plans and sub-plans).
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Walk visits n and every descendant in pre-order, including init-plans
// and sub-plans attached at any level.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
	for _, ip := range n.InitPlans {
		ip.Walk(fn)
	}
	for _, sp := range n.SubPlans {
		sp.Walk(fn)
	}
}

// WalkTree visits only the main operator tree (no init-/sub-plans).
func (n *Node) WalkTree(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.WalkTree(fn)
	}
}

// HasSubqueryStructures reports whether the plan rooted at n uses
// init-plans or correlated sub-plans; n must be a plan root, the one node
// the planner attaches them to. The paper's operator-level models "cannot
// cope" with these non-tree structures (Section 5.3, footnote 2); the QPP
// layer uses this to exclude such plans exactly as the paper excluded
// TPC-H templates 2, 11, 15 and 22.
func (n *Node) HasSubqueryStructures() bool {
	return len(n.InitPlans) > 0 || len(n.SubPlans) > 0
}

// Signature returns the canonical structural key of the sub-plan rooted at
// n: operator types, scan targets, and tree shape — but not parameter
// values — so that all occurrences of a plan structure across queries hash
// to the same value. This is the hash-based sub-plan index Algorithm 1's
// get_plan_list builds.
func (n *Node) Signature() string { return string(n.AppendSignature(nil)) }

// AppendSignature appends n.Signature() to dst and returns the extended
// buffer: a caller rendering many signatures reuses one buffer.
func (n *Node) AppendSignature(dst []byte) []byte {
	dst = n.appendOwnSignature(dst)
	if len(n.Children) > 0 {
		dst = append(dst, '(')
		for i, c := range n.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = c.AppendSignature(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}

// appendOwnSignature appends what n contributes to its signature besides
// its children's: the operator, a join's kind and a scan's table.
func (n *Node) appendOwnSignature(dst []byte) []byte {
	dst = append(dst, n.Op...)
	if n.Op == OpHashJoin || n.Op == OpHashSemiJoin || n.Op == OpHashAntiJoin ||
		n.Op == OpNestedLoop || n.Op == OpMergeJoin {
		dst = append(append(dst, '/'), n.JoinType.String()...)
	}
	if n.Table != "" {
		dst = append(append(append(dst, '['), n.Table...), ']')
	}
	return dst
}

// SignatureOver returns n.Signature() given the signatures of n's
// children, in order. A caller that visits a whole tree bottom-up gets
// every node's signature in time linear in the output, where calling
// Signature on each node renders every subtree once per ancestor.
func (n *Node) SignatureOver(children []string) string {
	b := n.appendOwnSignature(nil)
	if len(children) > 0 {
		b = append(b, '(')
		for i, c := range children {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, c...)
		}
		b = append(b, ')')
	}
	return string(b)
}

// CardQError returns the cardinality q-error of the node's row estimate
// against its observed per-loop output: max(est/act, act/est), with both
// sides floored at one row so empty results do not divide by zero. The
// q-error is the standard symmetric measure of cardinality estimation
// quality; 1 is a perfect estimate. Returns 0 for nodes that never
// executed (no observation to compare against).
func (n *Node) CardQError() float64 {
	if !n.Act.Executed {
		return 0
	}
	loops := n.Act.Loops
	if loops < 1 {
		loops = 1
	}
	est, act := n.Est.Rows, n.Act.Rows/float64(loops)
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

// SubPlanList returns every sub-tree of the main operator tree (including
// the root itself), in pre-order.
func (n *Node) SubPlanList() []*Node {
	var out []*Node
	n.WalkTree(func(m *Node) { out = append(out, m) })
	return out
}

// String renders a one-line summary for errors and logs.
func (n *Node) String() string {
	if n.Table != "" {
		return fmt.Sprintf("%s on %s", n.Op, n.Table)
	}
	return string(n.Op)
}
