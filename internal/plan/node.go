package plan

import (
	"fmt"

	"qpp/internal/types"
)

// OpType names a physical operator, using PostgreSQL's EXPLAIN vocabulary
// so the paper's feature names (<operator_name>_cnt, <operator_name>_rows)
// carry over directly. It is one byte on the node; String gives the name.
type OpType uint8

// Physical operator types. The zero OpType names no operator.
const (
	OpSeqScan OpType = iota + 1
	OpIndexScan
	OpSort
	OpLimit
	OpMaterialize
	OpNestedLoop
	OpHashJoin
	OpHashSemiJoin
	OpHashAntiJoin
	OpMergeJoin
	OpHash
	OpHashAggregate
	OpGroupAgg
	OpAggregate
	OpResult
	OpSubqueryScan
)

var opNames = [...]string{
	OpSeqScan: "Seq Scan", OpIndexScan: "Index Scan", OpSort: "Sort", OpLimit: "Limit",
	OpMaterialize: "Materialize", OpNestedLoop: "Nested Loop", OpHashJoin: "Hash Join",
	OpHashSemiJoin: "Hash Semi Join", OpHashAntiJoin: "Hash Anti Join", OpMergeJoin: "Merge Join",
	OpHash: "Hash", OpHashAggregate: "HashAggregate", OpGroupAgg: "GroupAggregate",
	OpAggregate: "Aggregate", OpResult: "Result", OpSubqueryScan: "Subquery Scan",
}

// String is the operator's EXPLAIN name ("" for the zero OpType).
func (o OpType) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OpType(%d)", uint8(o))
}

// ParseOpType is the operator named name, the inverse of String.
func ParseOpType(name string) (OpType, bool) {
	for _, op := range AllOpTypes {
		if opNames[op] == name {
			return op, true
		}
	}
	return 0, false
}

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

// Node is one operator in a physical plan tree. It holds inline what
// every operator carries, and a scan's table; each other operator kind's
// payload hangs off one pointer that only that kind's constructor sets
// (nil on every other node), and the root alone owns the query's
// init-plans, correlated sub-plans and parameter count. So a Seq Scan or a
// Hash node is one allocation. Code that reads payloads of any node goes
// through the nil-safe accessors below.
type Node struct {
	Op       OpType
	Children []*Node
	// Cols is the output column metadata. It may be shared — with a
	// child's, with the block layout of a join tree, or, on base-table
	// scans, with every plan over the same table statistics — so it is
	// read-only: a node that renames columns builds a new array.
	Cols []Column

	Est Estimates
	Act Actuals

	// Filter applies to output rows (scan filters, WHERE residuals, HAVING).
	Filter Scalar

	// Scan target: Table for base-table scans, Alias also for a derived
	// table's Subquery Scan.
	Table string
	Alias string

	Join   *JoinPayload   // Nested Loop, Hash (Semi/Anti) Join, Merge Join
	Agg    *AggPayload    // HashAggregate, GroupAggregate, Aggregate
	Lookup *LookupPayload // an Index Scan's key lookups; nil for a full ordered scan
	Sort   *SortPayload   // Sort
	Proj   *ProjPayload   // Result
	LimitN int            // Limit
	Root   *RootPayload   // the plan root: set by the planner or, on first Run, the executor
}

// JoinPayload is a join's kind, keys and residual.
type JoinPayload struct {
	Type       JoinKind
	HashKeysL  []Scalar // bound against the left child schema
	HashKeysR  []Scalar // bound against the right child schema
	MergeKeysL []int    // sorted-column ordinals for merge join
	MergeKeysR []int
	Filter     Scalar // ON residual, bound against concatenated schema
}

// AggPayload is an aggregate's grouping keys and computations.
type AggPayload struct {
	GroupBy []Scalar
	Aggs    []AggSpec
}

// LookupPayload keys an Index Scan on the table's primary index.
type LookupPayload struct {
	// Exprs parameterize the scan from the *outer* row of the enclosing
	// nested loop (PostgreSQL's parameterized inner indexscan).
	Exprs []Scalar
	// Consts are constant index key values for standalone lookups.
	Consts []Scalar
}

// SortPayload is a Sort's keys.
type SortPayload struct{ Keys []SortKey }

// ProjPayload is a Result node's projected expressions.
type ProjPayload struct{ Exprs []Scalar }

// RootPayload is what only a plan root carries. It has two owners: the
// planner creates it for a query with init-plans, sub-plans or parameters
// and fills every field but ExecCache; the executor owns ExecCache and
// creates the payload on a plan's first Run when the planner did not. So a
// non-nil Root does not by itself mean the query has sub-plans.
type RootPayload struct {
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
	// already requires.
	ExecCache any
}

// JoinType is n's join kind; JoinInner on a node without a join payload.
func (n *Node) JoinType() JoinKind {
	if n.Join == nil {
		return JoinInner
	}
	return n.Join.Type
}

// JoinOf is n's join payload, or an empty one — an inner join without keys
// or residual, not attached to n — when n has none.
func (n *Node) JoinOf() *JoinPayload {
	if n.Join == nil {
		return &JoinPayload{}
	}
	return n.Join
}

// GroupBy is n's grouping keys (nil without an aggregate payload).
func (n *Node) GroupBy() []Scalar {
	if n.Agg == nil {
		return nil
	}
	return n.Agg.GroupBy
}

// Aggs is n's aggregate computations (nil without an aggregate payload).
func (n *Node) Aggs() []AggSpec {
	if n.Agg == nil {
		return nil
	}
	return n.Agg.Aggs
}

// LookupExprs is n's outer-row index keys (nil without a lookup payload).
func (n *Node) LookupExprs() []Scalar {
	if n.Lookup == nil {
		return nil
	}
	return n.Lookup.Exprs
}

// LookupConsts is n's constant index keys (nil without a lookup payload).
func (n *Node) LookupConsts() []Scalar {
	if n.Lookup == nil {
		return nil
	}
	return n.Lookup.Consts
}

// SortKeys is n's sort keys (nil without a sort payload).
func (n *Node) SortKeys() []SortKey {
	if n.Sort == nil {
		return nil
	}
	return n.Sort.Keys
}

// Projs is n's projected expressions (nil without a projection payload).
func (n *Node) Projs() []Scalar {
	if n.Proj == nil {
		return nil
	}
	return n.Proj.Exprs
}

// InitPlans is the root's init-plans (nil on any other node).
func (n *Node) InitPlans() []*Node {
	if n.Root == nil {
		return nil
	}
	return n.Root.InitPlans
}

// SubPlans is the root's correlated sub-plans (nil on any other node).
func (n *Node) SubPlans() []*Node {
	if n.Root == nil {
		return nil
	}
	return n.Root.SubPlans
}

// NumParams is the root's parameter slot count (0 on any other node).
func (n *Node) NumParams() int {
	if n.Root == nil {
		return 0
	}
	return n.Root.NumParams
}

// IndexName is the index an Index Scan reads, the table's primary key
// index ("" on any other node). It is rendered, not stored.
func (n *Node) IndexName() string {
	if n.Op != OpIndexScan {
		return ""
	}
	return n.Table + "_pkey"
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
	for _, ip := range n.InitPlans() {
		ip.Walk(fn)
	}
	for _, sp := range n.SubPlans() {
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
	return len(n.InitPlans()) > 0 || len(n.SubPlans()) > 0
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
	dst = append(dst, n.Op.String()...)
	if n.Op == OpHashJoin || n.Op == OpHashSemiJoin || n.Op == OpHashAntiJoin ||
		n.Op == OpNestedLoop || n.Op == OpMergeJoin {
		dst = append(append(dst, '/'), n.JoinType().String()...)
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

// String renders a one-line summary for errors and logs.
func (n *Node) String() string {
	if n.Table != "" {
		return fmt.Sprintf("%s on %s", n.Op, n.Table)
	}
	return n.Op.String()
}
