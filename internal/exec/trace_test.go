package exec

import (
	"testing"

	"qpp/internal/obs"
	"qpp/internal/plan"
	"qpp/internal/vclock"
)

// TestTracedRunMatchesUntraced: attaching a trace must not change any
// observable of the execution — actual counts, per-node run times, or the
// total elapsed virtual time — bit for bit.
func TestTracedRunMatchesUntraced(t *testing.T) {
	db := testDB(t)

	build := func() *plan.Node {
		join, _, _ := hashJoinTree(plan.JoinInner)
		sortN := &plan.Node{
			Op: plan.OpSort, Children: []*plan.Node{join}, Cols: join.Cols,
			Sort: &plan.SortPayload{Keys: []plan.SortKey{{Col: 0}}},
		}
		return sortN
	}

	plain := build()
	resPlain, err := Run(db, plain, noNoiseClock(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	traced := build()
	clock := noNoiseClock()
	tr := obs.NewTrace(clock)
	resTraced, err := Run(db, traced, clock, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}

	if resPlain.Elapsed != resTraced.Elapsed {
		t.Fatalf("elapsed differs: %v vs %v", resPlain.Elapsed, resTraced.Elapsed)
	}
	var pn, tn []*plan.Node
	plain.Walk(func(n *plan.Node) { pn = append(pn, n) })
	traced.Walk(func(n *plan.Node) { tn = append(tn, n) })
	if len(pn) != len(tn) {
		t.Fatalf("node counts differ: %d vs %d", len(pn), len(tn))
	}
	for i := range pn {
		if pn[i].Act != tn[i].Act {
			t.Fatalf("node %d actuals differ:\n%+v\n%+v", i, pn[i].Act, tn[i].Act)
		}
	}
}

// TestTraceSpansMatchInstrumentation: one span per executed operator,
// whose inclusive time equals the node's RunTime exactly (both are sums
// of the same clock deltas in the same order), with exclusive busy times
// that add up to the query's elapsed time.
func TestTraceSpansMatchInstrumentation(t *testing.T) {
	db := testDB(t)
	join, _, _ := hashJoinTree(plan.JoinInner)
	sortN := &plan.Node{
		Op: plan.OpSort, Children: []*plan.Node{join}, Cols: join.Cols,
		Sort: &plan.SortPayload{Keys: []plan.SortKey{{Col: 0}}},
	}
	clock := noNoiseClock()
	tr := obs.NewTrace(clock)
	res, err := Run(db, sortN, clock, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}

	var nodes int
	sortN.Walk(func(n *plan.Node) { nodes++ })
	if len(tr.Spans()) != nodes {
		t.Fatalf("spans %d, nodes %d", len(tr.Spans()), nodes)
	}
	if len(tr.Roots()) != 1 || tr.Roots()[0].Node != sortN {
		t.Fatalf("roots %v", tr.Roots())
	}
	var selfBusy float64
	for _, s := range tr.Spans() {
		if s.Incl != s.Node.Act.RunTime {
			t.Fatalf("%s: span incl %v != node runtime %v", s.Node.Op, s.Incl, s.Node.Act.RunTime)
		}
		if s.End < s.Start || s.End > res.Elapsed {
			t.Fatalf("%s: window [%v, %v] outside execution [0, %v]", s.Node.Op, s.Start, s.End, res.Elapsed)
		}
		selfBusy += s.Self.Busy
	}
	// Exclusive busy times partition the root's inclusive time.
	root := tr.Roots()[0]
	d := selfBusy - root.Incl
	if d < 0 {
		d = -d
	}
	if d > 1e-9*(1+root.Incl) {
		t.Fatalf("sum of self busy %v != root incl %v", selfBusy, root.Incl)
	}
	if root.Incl != res.Elapsed {
		t.Fatalf("root incl %v != elapsed %v", root.Incl, res.Elapsed)
	}
}

// TestTraceSpillAttribution: spill pages charged inside an operator's
// call window land on that operator's span.
func TestTraceSpillAttribution(t *testing.T) {
	db := testDB(t)
	join, _, _ := hashJoinTree(plan.JoinInner)
	p := vclock.DefaultProfile()
	p.NoiseSigma = 0
	p.WorkMemPages = 0 // everything spills
	clock := vclock.NewClock(p, 1)
	tr := obs.NewTrace(clock)
	if _, err := Run(db, join, clock, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var joinSpan *obs.Span
	for _, s := range tr.Spans() {
		if s.Node == join {
			joinSpan = s
		}
	}
	if joinSpan == nil {
		t.Fatal("no span for the join node")
	}
	if joinSpan.Self.SpillPages <= 0 {
		t.Fatalf("join span has no spill pages: %+v", joinSpan.Self)
	}
	tot := tr.Totals()
	if tot.SpillPages <= 0 {
		t.Fatalf("clock totals have no spill pages: %+v", tot)
	}
	// Only operators spill; the sum over spans equals the clock total.
	var sum float64
	for _, s := range tr.Spans() {
		sum += s.Self.SpillPages
	}
	if sum != tot.SpillPages {
		t.Fatalf("span spill pages %v != clock total %v", sum, tot.SpillPages)
	}
}

// TestTraceFirstRowStamp: the first-row mark coincides with the node's
// StartTime instrumentation (both read the same clock instant).
func TestTraceFirstRowStamp(t *testing.T) {
	db := testDB(t)
	n := scanNode("t", 2)
	clock := noNoiseClock()
	tr := obs.NewTrace(clock)
	if _, err := Run(db, n, clock, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	s := tr.Spans()[0]
	if s.FirstRow <= 0 {
		t.Fatalf("first row not stamped: %+v", s)
	}
	if s.FirstRow < s.Start || s.FirstRow > s.End {
		t.Fatalf("first row %v outside window [%v, %v]", s.FirstRow, s.Start, s.End)
	}
}
