// Package trace is the simulation's one event vocabulary. Every traced
// occurrence — a frame on the bit-accurate wire, a crash, a protocol step of
// Figures 6–9 — is a typed, comparable Event: a Msg plus its operands. The
// bus and the runtime bindings emit Events, and protocol cores carry the
// same Msg in their trace commands (proto.Command.TraceMsg). Emitting
// formats nothing; text is rendered only when the trace is read.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"canely/internal/can"
	"canely/internal/sim"
)

// Msg names a traced occurrence. The numeric values are recorded in replay
// logs (a core's trace command carries its Msg), so they never change: new
// messages are appended before numMsgs.
type Msg uint8

const (
	// MsgNone is the zero value: no message.
	MsgNone Msg = iota
	// MsgELS renders "explicit life-sign".
	MsgELS
	// MsgTimerExpired renders "timer expired for <Subject>".
	MsgTimerExpired
	// MsgNodeFailed renders "node <Subject> failed".
	MsgNodeFailed
	// MsgJoinRequested renders "join requested".
	MsgJoinRequested
	// MsgJoinRetried renders "join retried".
	MsgJoinRetried
	// MsgLeaveRequested renders "leave requested".
	MsgLeaveRequested
	// MsgViewChange renders "view <Old> -> <New>".
	MsgViewChange
	// MsgRHAStart renders "rhv=<New>", the initial vector of an RHA.
	MsgRHAStart
	// MsgFedDigest renders "digest s<Subject> view=<New>".
	MsgFedDigest
	// MsgSegmentStale renders "segment s<Subject> stale".
	MsgSegmentStale
	// MsgSiteChange renders "site <Old> -> <New>".
	MsgSiteChange
	// MsgRHAEnd renders "rhv=<New>", the agreed vector of an RHA.
	MsgRHAEnd
	// MsgTxStart renders "<Frame> senders=<Nodes> attempt=<N>".
	MsgTxStart
	// MsgTxOK renders "<Frame> senders=<Nodes>".
	MsgTxOK
	// MsgTxErr renders "<Frame> attempt=<N>".
	MsgTxErr
	// MsgTxIncons renders "<Frame> victims=<Nodes> crash=<Crash>".
	MsgTxIncons
	// MsgNodeCrashed renders "node crashed".
	MsgNodeCrashed
	// MsgBusOff renders "tec=<N>".
	MsgBusOff

	numMsgs
)

// kinds labels each message; several messages may share a label.
var kinds = [numMsgs]string{
	MsgELS:            "els",
	MsgTimerExpired:   "fd-nty",
	MsgNodeFailed:     "fda-nty",
	MsgJoinRequested:  "join-req",
	MsgJoinRetried:    "join-req",
	MsgLeaveRequested: "leave-req",
	MsgViewChange:     "view-change",
	MsgRHAStart:       "rha-start",
	MsgFedDigest:      "fed-digest",
	MsgSegmentStale:   "site-change",
	MsgSiteChange:     "site-change",
	MsgRHAEnd:         "rha-end",
	MsgTxStart:        "tx-start",
	MsgTxOK:           "tx-ok",
	MsgTxErr:          "tx-err",
	MsgTxIncons:       "tx-incons",
	MsgNodeCrashed:    "crash",
	MsgBusOff:         "bus-off",
}

// Kind returns the message's label, the column Dump and Summary group by;
// "" for MsgNone and unknown values.
func (m Msg) Kind() string {
	if m >= numMsgs {
		return ""
	}
	return kinds[m]
}

// Event is one timestamped occurrence. Which operands are meaningful
// depends on Msg; the others stay zero, so Events compare with ==.
type Event struct {
	At sim.Time
	// Node is the emitting node, -1 for the bus itself.
	Node int
	Msg  Msg
	// Subject is the node or segment a protocol message is about.
	Subject can.NodeID
	// Crash reports whether the senders of a tx-incons frame crashed with it.
	Crash bool
	// Old and New are the views before and after a view or site change. New
	// alone is the vector of an RHA and the member set of a digest.
	Old, New can.NodeSet
	// Frame is the frame of a transmission event, Nodes its senders (tx-start,
	// tx-ok) or the receivers that missed it (tx-incons).
	Frame can.Frame
	Nodes can.NodeSet
	// N is the attempt number of tx-start and tx-err and the transmit error
	// counter of bus-off.
	N int
}

// Text renders the event's message from its operands.
func (e Event) Text() string {
	switch e.Msg {
	case MsgELS:
		return "explicit life-sign"
	case MsgTimerExpired:
		return fmt.Sprintf("timer expired for %v", e.Subject)
	case MsgNodeFailed:
		return fmt.Sprintf("node %v failed", e.Subject)
	case MsgJoinRequested:
		return "join requested"
	case MsgJoinRetried:
		return "join retried"
	case MsgLeaveRequested:
		return "leave requested"
	case MsgViewChange:
		return fmt.Sprintf("view %v -> %v", e.Old, e.New)
	case MsgRHAStart, MsgRHAEnd:
		return fmt.Sprintf("rhv=%v", e.New)
	case MsgFedDigest:
		return fmt.Sprintf("digest s%02d view=%v", int(e.Subject), e.New)
	case MsgSegmentStale:
		return fmt.Sprintf("segment s%02d stale", int(e.Subject))
	case MsgSiteChange:
		return fmt.Sprintf("site %v -> %v", e.Old, e.New)
	case MsgTxStart:
		return fmt.Sprintf("%v senders=%v attempt=%d", e.Frame, e.Nodes, e.N)
	case MsgTxOK:
		return fmt.Sprintf("%v senders=%v", e.Frame, e.Nodes)
	case MsgTxErr:
		return fmt.Sprintf("%v attempt=%d", e.Frame, e.N)
	case MsgTxIncons:
		return fmt.Sprintf("%v victims=%v crash=%t", e.Frame, e.Nodes, e.Crash)
	case MsgNodeCrashed:
		return "node crashed"
	case MsgBusOff:
		return fmt.Sprintf("tec=%d", e.N)
	}
	return ""
}

// String renders the event as one trace line.
func (e Event) String() string {
	who := "bus"
	if e.Node >= 0 {
		who = fmt.Sprintf("n%02d", e.Node)
	}
	return fmt.Sprintf("%12v %-10s %-4s %s", e.At, e.Msg.Kind(), who, e.Text())
}

// Trace accumulates events. A nil *Trace is usable everywhere and discards
// everything, so layers can trace unconditionally.
type Trace struct {
	events []Event
	clock  func() sim.Time
}

// New returns a Trace that timestamps events with the given clock.
func New(clock func() sim.Time) *Trace {
	return &Trace{clock: clock}
}

// Emit records an event, stamped with the trace's clock when it has one.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	if t.clock != nil {
		e.At = t.clock()
	}
	t.events = append(t.events, e)
}

// Events returns the recorded events in order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Count returns how many events carry the message.
func (t *Trace) Count(m Msg) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, e := range t.events {
		if e.Msg == m {
			n++
		}
	}
	return n
}

// Dump writes the full trace to w.
func (t *Trace) Dump(w io.Writer) {
	if t == nil {
		return
	}
	for _, e := range t.events {
		fmt.Fprintln(w, e)
	}
}

// Summary returns a per-kind event count table, sorted by kind.
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	counts := map[string]int{}
	for _, e := range t.events {
		counts[e.Msg.Kind()]++
	}
	labels := make([]string, 0, len(counts))
	for k := range counts {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	var sb strings.Builder
	for _, k := range labels {
		fmt.Fprintf(&sb, "%-12s %d\n", k, counts[k])
	}
	return sb.String()
}
