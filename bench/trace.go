package main

import (
	"encoding/json"
	"os"
	"time"

	"canely"
	"canely/internal/can"
	"canely/internal/core/membership"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span in the same trace, -1 at top level.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Batch    int    `json:"batch"`
}

// tracer keeps spans in memory until flush. A nil tracer records nothing,
// so workloads call it unconditionally. It is used from one goroutine at a
// time (the workload's driver, or the single campaign worker).
type tracer struct {
	epoch    time.Time
	spans    []span
	open     []int // stack of open span indices
	workload string
	batch    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setBatch tags the spans that follow with batch b (-1: set-up).
func (t *tracer) setBatch(b int) {
	if t != nil {
		t.batch = b
	}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.epoch)), Parent: parent,
		Workload: t.workload, Batch: t.batch,
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned (and anything left open inside it).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		if top == id {
			break
		}
	}
}

// spanTotal is the per-name aggregate of one workload's spans: how often the
// benchmark called into the layer, for how long, and how much of that was
// not covered by a child span (self time).
type spanTotal struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// totals aggregates the spans of one workload by name.
func (t *tracer) totals(workload string) map[string]spanTotal {
	out := map[string]spanTotal{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Workload == workload && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Workload != workload {
			continue
		}
		a := out[s.Name]
		a.Count++
		a.TotalNs += s.End - s.Start
		a.SelfNs += s.End - s.Start - child[i]
		out[s.Name] = a
	}
	return out
}

// flush writes every span to path as one JSON array.
func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hookCounts counts at the stack's layer boundaries through the public
// canely.Config.Hooks surface. Counting changes the program under test (a
// non-nil Hooks interposes a controller wrapper), which is why it happens on
// the traced pass only.
type hookCounts struct {
	indications, rtrIndications, observerFrames int
	confirms, dataNty, fdaNty, fdNty, views     int
	// observer is the node whose indications count physical frames: it
	// never crashes, so it hears every delivered frame exactly once.
	observer can.NodeID
}

func (h *hookCounts) hooks() *canely.Hooks {
	return &canely.Hooks{
		OnIndication: func(node can.NodeID, f can.Frame, own bool) {
			h.indications++
			if f.RTR {
				h.rtrIndications++
			}
			if node == h.observer {
				h.observerFrames++
			}
		},
		OnConfirm:    func(can.NodeID, can.Frame) { h.confirms++ },
		OnDataNty:    func(can.NodeID, can.MID) { h.dataNty++ },
		OnFDANotify:  func(_, _ can.NodeID) { h.fdaNty++ },
		OnFDNotify:   func(_, _ can.NodeID) { h.fdNty++ },
		OnViewChange: func(can.NodeID, membership.Change) { h.views++ },
	}
}

// into adds the hook counts to the observations as stack.* layer metrics.
func (h *hookCounts) into(o *observed) {
	o.count("stack.indications", float64(h.indications))
	o.count("stack.rtr_indications", float64(h.rtrIndications))
	o.count("stack.confirms", float64(h.confirms))
	o.count("stack.data_nty", float64(h.dataNty))
	o.count("stack.fda_nty", float64(h.fdaNty))
	o.count("stack.fd_nty", float64(h.fdNty))
	o.count("stack.view_changes", float64(h.views))
	o.count("stack.observer_frames", float64(h.observerFrames))
}
