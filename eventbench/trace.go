package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span kinds. A "call" span wraps a call into the layer as it happened and
// nests inside its operation; a "stats" span carries a duration the program
// measured itself (Result.Stats) and ends when the benchmark read
// it; a "replay" span re-runs a pure or read-only call on the same state
// right after the operation.
const (
	spanCall   = "call"
	spanStats  = "stats"
	spanReplay = "replay"
)

// Span is one traced interval.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Op     int    `json:"op"`     // operation sequence number, -1 for set-up
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory; they are written out once, at the end. A
// server's handler goroutines record into it too, hence the lock.
type Tracer struct {
	t0   time.Time
	op   int // current operation number (client goroutine only)
	root int // current operation's root span id (client goroutine only)

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now(), op: -1} }

func (t *Tracer) add(name, kind string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Op: t.op, Name: name, Kind: kind,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// startOp opens an operation's root span; finishOp closes it.
func (t *Tracer) startOp(op int, name string, start time.Time) {
	t.op = op
	t.root = t.add(name, spanCall, 0, start, start)
}

func (t *Tracer) finishOp(end time.Time) { t.setEnd(t.root, end) }

// setEnd closes span id.
func (t *Tracer) setEnd(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
}

// child records a span under the current operation.
func (t *Tracer) child(name, kind string, start, end time.Time) int {
	return t.add(name, kind, t.root, start, end)
}

// all returns a copy of the spans recorded so far.
func (t *Tracer) all() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// layerTime is one row of the self-time summary.
type layerTime struct {
	Layer   string  `json:"layer"`
	Kind    string  `json:"kind"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes sums each layer's time and self time: a call span's duration
// minus the part its nested call spans cover. Stats and replay spans are
// not placed exactly inside their operation, so they never count against
// another span, and their self time is their whole duration.
func (t *Tracer) selfTimes() []layerTime {
	spans := t.all()
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 && s.Kind == spanCall {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Layer: s.Name, Kind: s.Kind}
			rows[s.Name] = r
		}
		d := float64(s.End-s.Start) / 1e6
		r.Count++
		r.TotalMS += d
		r.SelfMS += d - float64(covered(s, kids[s.ID]))/1e6
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is how much of parent's interval the children cover (union).
func covered(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// traceReport is the summary written beside the span file.
type traceReport struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Operations   int     `json:"operations"`
	Spans        int     `json:"spans"`
	UntracedOpMS float64 `json:"untraced_op_ms_total"`
	TracedOpMS   float64 `json:"traced_op_ms_total"`
	OverheadPct  float64 `json:"tracing_overhead_pct"`
	// CPUOverheadPct compares the two passes' scaled CPU times of
	// acknowledged operations, as the end-to-end metrics measure them.
	CPUOverheadPct float64     `json:"tracing_overhead_cpu_pct"`
	ConfigsEqual   bool        `json:"configs_equal"`
	SelfTime       []layerTime `json:"self_time"`
}

// writeTrace writes the spans and the summary under dir.
func writeTrace(dir string, t *Tracer, rep traceReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	all := t.all()
	rep.Spans = len(all)
	rep.SelfTime = t.selfTimes()
	base := fmt.Sprintf("%s/%s-seed%d", dir, rep.Workload, rep.Seed)
	spans, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-spans.json", spans, 0o644); err != nil {
		return err
	}
	sum, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-summary.json", sum, 0o644)
}
