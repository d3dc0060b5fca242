package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark from outside the layer. Start and End are nanoseconds
// since the tracer was created; Parent is the ID of the enclosing span
// (-1 for a root); Op groups the spans of one operation (-1 for set-up
// and probe spans that belong to no op).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; dump writes them out when the benchmark
// ends. It is used from one goroutine only (traced passes are
// single-threaded). A nil *tracer records nothing, so the same
// decomposition code serves the traced pass and the output checks.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	if len(t.stack) == 0 || t.stack[len(t.stack)-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
}

// endAs closes span id under another name: a call whose outcome decides
// which layer path it took (memo, rebind, fallback, miss) is named after
// it returns.
func (t *tracer) endAs(id int, name string) {
	t.end(id)
	if t != nil {
		t.spans[id].Name = name
	}
}

// beginOp opens the parent span of one operation; every span until the
// matching end shares its op id.
func (t *tracer) beginOp(op int) int {
	if t == nil {
		return -1
	}
	t.op = op
	return t.begin(opSpan)
}

func (t *tracer) endOp(id int) {
	t.end(id)
	if t != nil {
		t.op = -1
	}
}

// time runs fn inside a span.
func (t *tracer) time(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// opSpan names the per-operation parent span.
const opSpan = "op"

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children are clipped to the
// parent and overlapping children are not double-counted).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := int64(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	durs []float64 // seconds, in recording order
	self float64   // total self seconds
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.durs = append(st.durs, float64(s.dur())/1e9)
		st.self += float64(self[i]) / 1e9
	}
	return out
}

// spanDump is the trace file layout (see README, "Reading a trace").
type spanDump struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// dump writes the spans to dir/<workload>-seed<seed>.spans.json.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", workload, seed))
	b, err := json.Marshal(spanDump{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", fmt.Errorf("bench: encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("bench: write spans: %w", err)
	}
	return path, nil
}
