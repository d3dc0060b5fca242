package opt

import (
	"qpp/internal/arena"
	"qpp/internal/catalog"
	"qpp/internal/plan"
	"qpp/internal/sql"
)

// The slabs a planning run carves its plan and its scratch from. A
// planner's mem is the request arena of the *In entry points (PlanIn,
// PlanSQLIn, PlanReplayIn), so a served request's plan, binder and join
// search state live exactly as long as its arena; it is nil for every
// other caller, and each slab then allocates from the heap as new, make
// and append would.
var (
	planners   = arena.NewSlab[planner]()
	scopes     = arena.NewSlab[scope]()
	relInfos   = arena.NewSlab[relInfo]()
	relLists   = arena.NewSlab[*relInfo]()
	binders    = arena.NewSlab[binder]()
	aggScopes  = arena.NewSlab[aggScope]()
	subCtxs    = arena.NewSlab[subCtx]()
	outerRefs  = arena.NewSlab[outerRef]()
	joinTrees  = arena.NewSlab[joinTree]()
	treeLists  = arena.NewSlab[*joinTree]()
	joinEdges  = arena.NewSlab[joinEdge]()
	semiLists  = arena.NewSlab[semiEntry]()
	leftLists  = arena.NewSlab[leftJoinSpec]()
	schemaCols = arena.NewSlab[schemaCol]()
	stretches  = arena.NewSlab[stretch]()
	relSets    = arena.NewSlab[relSet]()
	joinSteps  = arena.NewSlab[JoinStep]()
	catColumns = arena.NewSlab[catalog.Column]()
	strs       = arena.NewSlab[string]()
	intLists   = arena.NewSlab[int]()
	slotLists  = arena.NewSlab[[]int]()

	sqlExprs     = arena.NewSlab[sql.Expr]()
	sqlExprLists = arena.NewSlab[[]sql.Expr]()
	sqlSelects   = arena.NewSlab[sql.SelectStmt]()
	sqlItems     = arena.NewSlab[sql.SelectItem]()
	sqlBinaries  = arena.NewSlab[sql.BinaryExpr]()

	nodes         = arena.NewSlab[plan.Node]()
	nodeLists     = arena.NewSlab[*plan.Node]()
	columns       = arena.NewSlab[plan.Column]()
	joinPayloads  = arena.NewSlab[plan.JoinPayload]()
	aggPayloads   = arena.NewSlab[plan.AggPayload]()
	lookups       = arena.NewSlab[plan.LookupPayload]()
	sortPayloads  = arena.NewSlab[plan.SortPayload]()
	projPayloads  = arena.NewSlab[plan.ProjPayload]()
	rootPayloads  = arena.NewSlab[plan.RootPayload]()
	sortKeys      = arena.NewSlab[plan.SortKey]()
	aggSpecs      = arena.NewSlab[plan.AggSpec]()
	scalars       = arena.NewSlab[plan.Scalar]()
	planWhens     = arena.NewSlab[plan.When]()
	colScalars    = arena.NewSlab[plan.Col]()
	constScalars  = arena.NewSlab[plan.Const]()
	binScalars    = arena.NewSlab[plan.Bin]()
	notScalars    = arena.NewSlab[plan.Not]()
	negScalars    = arena.NewSlab[plan.Neg]()
	caseScalars   = arena.NewSlab[plan.Case]()
	inScalars     = arena.NewSlab[plan.In]()
	betweenScalar = arena.NewSlab[plan.Between]()
	isNullScalars = arena.NewSlab[plan.IsNull]()
	yearScalars   = arena.NewSlab[plan.ExtractYear]()
	substrScalars = arena.NewSlab[plan.Substring]()
	dateAdds      = arena.NewSlab[plan.DateAdd]()
	paramRefs     = arena.NewSlab[plan.ParamRef]()
	subPlanRefs   = arena.NewSlab[plan.SubPlan]()
)

// node returns a copy of n in the planner's memory.
func (p *planner) node(n plan.Node) *plan.Node { return nodes.New(p.mem, n) }

// children returns the child list ns in the planner's memory.
func (p *planner) children(ns ...*plan.Node) []*plan.Node { return nodeLists.Clone(p.mem, ns) }

// col returns a copy of c in the planner's memory.
func (p *planner) col(c plan.Col) *plan.Col { return colScalars.New(p.mem, c) }

// tree returns a copy of t in the planner's memory.
func (p *planner) tree(t joinTree) *joinTree { return joinTrees.New(p.mem, t) }

// newBinder returns a binder of the block scope sc against schema.
func (p *planner) newBinder(sc *scope, schema []schemaCol, corr *subCtx) *binder {
	return binders.New(p.mem, binder{p: p, sc: sc, schema: schema, corr: corr})
}
