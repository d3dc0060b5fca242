package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"qpp/internal/plan"
	"qpp/internal/vclock"
)

// Span is the execution record of one plan operator: its wall window on
// the virtual clock, inclusive busy time (equal to the node's RunTime
// instrumentation), call counts, and an exclusive work breakdown. The
// estimated and actual row/page counts are read from the node itself, so
// a span never duplicates instrumentation the planner and executor
// already maintain.
type Span struct {
	Node     *plan.Node
	Parent   *Span   // nil for roots (main tree root, init-plan roots)
	Children []*Span // in first-entry order

	Start    float64 // virtual time at the operator's first call
	End      float64 // virtual time when its last call returned
	FirstRow float64 // virtual time of the first output row (0 if none)
	Incl     float64 // inclusive busy seconds, == node.Act.RunTime
	Calls    int     // instrumented calls (Open + Next + ReScan)

	Self Breakdown // work in this operator's own code, children excluded

	hasFirstRow bool
}

// QError returns the cardinality q-error of the span's operator (see
// plan.Node.CardQError): how far the optimizer's row estimate was from
// the observed per-loop output, 1 being perfect, 0 if never executed.
func (s *Span) QError() float64 { return s.Node.CardQError() }

// frame is one active operator call on the trace stack.
type frame struct {
	s       *Span
	enterAt float64
}

// Trace collects the spans of one query execution. It is driven by the
// executor: Enter at the top of every instrumented call, Exit at the
// bottom. Single-goroutine, like the execution it observes.
type Trace struct {
	clock *vclock.Clock
	spans map[*plan.Node]*Span
	order []*Span // creation order (== first-entry order, deterministic)
	roots []*Span
	stack []frame
	last  vclock.Totals
}

// NewTrace builds a trace bound to the query's clock.
func NewTrace(clock *vclock.Clock) *Trace {
	return &Trace{clock: clock, spans: map[*plan.Node]*Span{}, last: clock.Totals()}
}

// Enter begins an instrumented call on the operator's span, creating the
// span on first entry. The interval since the previous trace event is
// attributed to the enclosing call's span — time a parent spends between
// child calls is the parent's own work.
func (t *Trace) Enter(n *plan.Node) *Span {
	cur := t.clock.Totals()
	t.attribute(cur)
	s := t.spans[n]
	if s == nil {
		s = &Span{Node: n, Start: cur.Now}
		if len(t.stack) > 0 {
			p := t.stack[len(t.stack)-1].s
			s.Parent = p
			p.Children = append(p.Children, s)
		} else {
			t.roots = append(t.roots, s)
		}
		t.spans[n] = s
		t.order = append(t.order, s)
	}
	s.Calls++
	t.stack = append(t.stack, frame{s: s, enterAt: cur.Now})
	return s
}

// Exit ends the innermost instrumented call, attributing the interval
// since the previous trace event to that call's span.
func (t *Trace) Exit() {
	cur := t.clock.Totals()
	t.attribute(cur)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	f.s.Incl += cur.Now - f.enterAt
	f.s.End = cur.Now
}

// MarkFirstRow stamps the span's first output row at the current virtual
// time; later calls are no-ops.
func (t *Trace) MarkFirstRow(s *Span) {
	if !s.hasFirstRow {
		s.hasFirstRow = true
		s.FirstRow = t.clock.Now()
	}
}

// attribute charges the totals interval since the last event to the span
// whose call is currently innermost.
func (t *Trace) attribute(cur vclock.Totals) {
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].s.Self.add(cur.Sub(t.last))
	}
	t.last = cur
}

// Roots returns the top-level spans in creation order: init-plan roots
// first (they run before the main tree), then the main plan root.
// Correlated sub-plan roots appear as children of the operator whose
// expression invoked them.
func (t *Trace) Roots() []*Span { return t.roots }

// Spans returns every span in creation order.
func (t *Trace) Spans() []*Span { return t.order }

// Totals snapshots the traced clock's accumulated work.
func (t *Trace) Totals() vclock.Totals { return t.clock.Totals() }

// Attribute reports every span's exclusive breakdown to the profile,
// keyed by operator type, in span creation order.
func (t *Trace) Attribute(p Profile) {
	for _, s := range t.order {
		p.Record(s.Node.Op.String(), s.Self)
	}
}

// spanHead names a span like EXPLAIN names the operator.
func spanHead(n *plan.Node) string {
	head := n.Op.String()
	switch n.Op {
	case plan.OpHashJoin, plan.OpNestedLoop, plan.OpMergeJoin:
		if jt := n.JoinType(); jt != plan.JoinInner {
			base := strings.TrimSuffix(head, " Join")
			if n.Op == plan.OpNestedLoop {
				head = fmt.Sprintf("%s %s Join", head, jt)
			} else {
				head = fmt.Sprintf("%s %s Join", base, jt)
			}
		}
	}
	if n.Table != "" {
		head += " on " + n.Table
	}
	if idx := n.IndexName(); idx != "" {
		head += " using " + idx
	}
	return head
}

// Tree renders the trace as an indented text tree, one span per operator
// with its window, timings, est-vs-actual cardinalities, cache behaviour
// and exclusive work breakdown. Output is byte-deterministic for a fixed
// (profile, seed).
func (t *Trace) Tree() string {
	var sb strings.Builder
	for _, r := range t.roots {
		writeSpan(&sb, r, 0)
	}
	return sb.String()
}

func writeSpan(sb *strings.Builder, s *Span, depth int) {
	indent := strings.Repeat("  ", depth)
	n := s.Node
	fmt.Fprintf(sb, "%s%s  span=[%.6f..%.6f] first=%.6f incl=%.6f calls=%d loops=%d\n",
		indent, spanHead(n), s.Start, s.End, s.FirstRow, s.Incl, s.Calls, n.Act.Loops)
	fmt.Fprintf(sb, "%s    rows est=%.0f act=%.0f | pages est=%.0f act=%.0f | cache hits=%.0f | spill pages=%.1f\n",
		indent, n.Est.Rows, n.Act.Rows, n.Est.Pages, n.Act.Pages, s.Self.CacheHits, s.Self.SpillPages)
	fmt.Fprintf(sb, "%s    self busy=%.6f io=%.6f cpu=%.6f numeric=%.6f hidden=%.6f\n",
		indent, s.Self.Busy, s.Self.IO, s.Self.CPU, s.Self.Numeric, s.Self.Hidden)
	for _, c := range s.Children {
		writeSpan(sb, c, depth+1)
	}
}

// chromeEvent is one Chrome trace_event. Args is a plain map: Go's JSON
// encoder writes map keys in sorted order, keeping the output
// byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes one or more traces as Chrome trace_event JSON
// (load via chrome://tracing or Perfetto). Each trace becomes one process
// whose name is the matching label; virtual seconds map to microseconds.
func WriteChrome(w io.Writer, traces []*Trace, labels []string) error {
	out := chromeFile{DisplayUnit: "ms", TraceEvents: []chromeEvent{}}
	for ti, tr := range traces {
		pid := ti + 1
		label := fmt.Sprintf("query %d", ti)
		if ti < len(labels) {
			label = labels[ti]
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": label},
		})
		for _, s := range tr.Spans() {
			dur := (s.End - s.Start) * 1e6
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: spanHead(s.Node),
				Cat:  "operator",
				Ph:   "X",
				Ts:   s.Start * 1e6,
				Dur:  &dur,
				Pid:  pid,
				Tid:  1,
				Args: map[string]any{
					"est_rows":    s.Node.Est.Rows,
					"act_rows":    s.Node.Act.Rows,
					"est_pages":   s.Node.Est.Pages,
					"act_pages":   s.Node.Act.Pages,
					"cache_hits":  s.Self.CacheHits,
					"spill_pages": s.Self.SpillPages,
					"incl_s":      s.Incl,
					"self_io_s":   s.Self.IO,
					"self_cpu_s":  s.Self.CPU,
					"self_num_s":  s.Self.Numeric,
					"loops":       s.Node.Act.Loops,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
