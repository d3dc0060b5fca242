package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeNestedAndAdjacent(t *testing.T) {
	// op [0,100] has adjacent children a [10,30] and b [30,60]; b has a
	// nested child c [35,45]. A root probe [200,250] stands alone.
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 2, Op: 0, Name: "c", Start: 35, End: 45},
		{ID: 4, Parent: -1, Op: -1, Name: "probe", Start: 200, End: 250},
	}
	want := []int64{50, 20, 20, 10, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	var total int64
	for i, s := range spans {
		if s.Op == 0 {
			total += got[i]
		}
	}
	if total != spans[0].dur() {
		t.Errorf("self times of the op's spans sum to %d, the op lasted %d", total, spans[0].dur())
	}
}

func TestSelfTimeClipsOverlappingChildren(t *testing.T) {
	// Children recorded out of order, overlapping each other and
	// overhanging the parent: covered is [5,25] ∪ [20,40] ∪ [90,100].
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "late", Start: 90, End: 130},
		{ID: 2, Parent: 0, Name: "x", Start: 20, End: 40},
		{ID: 3, Parent: 0, Name: "y", Start: 5, End: 25},
	}
	if got := selfTimes(spans)[0]; got != 100-45 {
		t.Errorf("self time = %d, want 55", got)
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer()
	setup := tr.begin("setup")
	tr.end(setup)
	for op := 0; op < 2; op++ {
		o := tr.beginOp(op)
		a := tr.begin("plancache.plan")
		tr.endAs(a, spanRebind)
		if err := tr.time("qpp.features", func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		tr.endOp(o)
	}
	if len(tr.spans) != 7 {
		t.Fatalf("%d spans, want 7", len(tr.spans))
	}
	if s := tr.spans[0]; s.Parent != -1 || s.Op != -1 {
		t.Errorf("set-up span: parent %d op %d", s.Parent, s.Op)
	}
	for op := 0; op < 2; op++ {
		o := tr.spans[1+3*op]
		if o.Name != opSpan || o.Parent != -1 || o.Op != op {
			t.Errorf("op span %d: %+v", op, o)
		}
		for _, c := range tr.spans[2+3*op : 4+3*op] {
			if c.Parent != o.ID || c.Op != op || c.Start < o.Start || c.End > o.End {
				t.Errorf("child %+v of op %+v", c, o)
			}
		}
		if name := tr.spans[2+3*op].Name; name != spanRebind {
			t.Errorf("endAs left the name %q", name)
		}
	}
	agg := aggregate(tr.spans)
	if n := len(agg[opSpan].durs); n != 2 {
		t.Errorf("%d op spans aggregated", n)
	}
	if agg[opSpan].self > sum(agg[opSpan].durs) {
		t.Error("self time exceeds duration")
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	o := tr.beginOp(3)
	id := tr.begin("x")
	tr.endAs(id, "y")
	tr.endOp(o)
	ran := false
	if err := tr.time("z", func() error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("time on a nil tracer: ran=%v err=%v", ran, err)
	}
}

func TestOutOfOrderEndPanics(t *testing.T) {
	tr := newTracer()
	a := tr.begin("a")
	tr.begin("b")
	defer func() {
		if recover() == nil {
			t.Error("closing the outer span first did not panic")
		}
	}()
	tr.end(a)
}

func TestDumpRoundTrips(t *testing.T) {
	tr := newTracer()
	o := tr.beginOp(0)
	tr.end(tr.begin("sql.parse"))
	tr.endOp(o)
	path, err := tr.dump(t.TempDir(), "serve_cold", 9)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d spanDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Workload != "serve_cold" || d.Seed != 9 || len(d.Spans) != 2 || d.Spans[1].Parent != 0 || d.Spans[1].Name != "sql.parse" {
		t.Errorf("dump read back as %+v", d)
	}
}
