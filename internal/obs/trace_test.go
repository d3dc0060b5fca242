package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"qpp/internal/plan"
	"qpp/internal/vclock"
)

func noNoiseClock() *vclock.Clock {
	p := vclock.DefaultProfile()
	p.NoiseSigma = 0
	return vclock.NewClock(p, 1)
}

// TestTraceAttribution drives a two-level execution by hand and checks
// exclusive attribution: the parent owns only the work charged outside
// the child's call, while inclusive time nests.
func TestTraceAttribution(t *testing.T) {
	clock := noNoiseClock()
	tr := NewTrace(clock)
	parent := &plan.Node{Op: plan.OpSort}
	child := &plan.Node{Op: plan.OpSeqScan, Table: "t"}

	ps := tr.Enter(parent)
	clock.CPUTuples(100) // parent's own work
	cs := tr.Enter(child)
	clock.CPUTuples(300) // child work
	tr.MarkFirstRow(cs)
	tr.Exit()
	clock.CPUTuples(100) // parent again
	tr.Exit()

	if len(tr.Roots()) != 1 || tr.Roots()[0] != ps {
		t.Fatalf("roots %v", tr.Roots())
	}
	if cs.Parent != ps || len(ps.Children) != 1 || ps.Children[0] != cs {
		t.Fatal("parent/child linkage broken")
	}
	cpu := clock.Profile().CPUTuple
	if !approx(ps.Self.Busy, 200*cpu) || !approx(cs.Self.Busy, 300*cpu) {
		t.Fatalf("self busy: parent=%v child=%v (cpuTuple=%v)", ps.Self.Busy, cs.Self.Busy, cpu)
	}
	if !approx(ps.Incl, 500*cpu) || !approx(cs.Incl, 300*cpu) {
		t.Fatalf("incl: parent=%v child=%v", ps.Incl, cs.Incl)
	}
	if ps.Calls != 1 || cs.Calls != 1 {
		t.Fatalf("calls %d/%d", ps.Calls, cs.Calls)
	}
	if !cs.hasFirstRow || cs.FirstRow <= cs.Start || cs.FirstRow > cs.End {
		t.Fatalf("first row stamp %v not in (%v, %v]", cs.FirstRow, cs.Start, cs.End)
	}
}

func approx(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+want)
}

// TestTraceSpanIdentity: re-entering the same node accumulates into one
// span instead of minting a new one per call.
func TestTraceSpanIdentity(t *testing.T) {
	clock := noNoiseClock()
	tr := NewTrace(clock)
	n := &plan.Node{Op: plan.OpSeqScan}
	for i := 0; i < 5; i++ {
		tr.Enter(n)
		clock.CPUTuples(10)
		tr.Exit()
	}
	if len(tr.Spans()) != 1 {
		t.Fatalf("spans %d, want 1", len(tr.Spans()))
	}
	s := tr.Spans()[0]
	if s.Calls != 5 {
		t.Fatalf("calls %d", s.Calls)
	}
	if !approx(s.Incl, 50*clock.Profile().CPUTuple) {
		t.Fatalf("incl %v", s.Incl)
	}
}

// TestTraceDoesNotAdvanceClock: pure tracing operations never move the
// virtual clock, so traced runs charge identical times.
func TestTraceDoesNotAdvanceClock(t *testing.T) {
	clock := noNoiseClock()
	tr := NewTrace(clock)
	n := &plan.Node{Op: plan.OpSeqScan}
	before := clock.Now()
	s := tr.Enter(n)
	tr.MarkFirstRow(s)
	tr.Exit()
	if clock.Now() != before {
		t.Fatalf("tracing advanced the clock: %v -> %v", before, clock.Now())
	}
}

func TestTraceTreeRendering(t *testing.T) {
	clock := noNoiseClock()
	tr := NewTrace(clock)
	parent := &plan.Node{Op: plan.OpHashJoin, Join: &plan.JoinPayload{Type: plan.JoinLeft}}
	child := &plan.Node{Op: plan.OpIndexScan, Table: "orders"}
	tr.Enter(parent)
	tr.Enter(child)
	clock.CPUTuples(10)
	tr.Exit()
	tr.Exit()
	out := tr.Tree()
	for _, want := range []string{"Left Join", "Index Scan on orders using orders_pkey", "span=[", "self busy="} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// Child lines are indented under the parent.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[3], "  ") {
		t.Fatalf("child not indented:\n%s", out)
	}
}

func TestWriteChrome(t *testing.T) {
	clock := noNoiseClock()
	tr := NewTrace(clock)
	n := &plan.Node{Op: plan.OpSeqScan, Table: "t"}
	tr.Enter(n)
	clock.CPUTuples(10)
	tr.Exit()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Trace{tr}, []string{"q1"}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// One metadata event plus one span event.
	if len(decoded.TraceEvents) != 2 {
		t.Fatalf("events %d, want 2", len(decoded.TraceEvents))
	}
	meta, span := decoded.TraceEvents[0], decoded.TraceEvents[1]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Fatalf("metadata event %v", meta)
	}
	if span["ph"] != "X" || span["name"] != "Seq Scan on t" {
		t.Fatalf("span event %v", span)
	}
	if span["dur"] == nil || span["args"] == nil {
		t.Fatalf("span missing dur/args: %v", span)
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, []*Trace{tr}, []string{"q1"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Chrome export is not deterministic")
	}
}
