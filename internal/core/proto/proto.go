// Package proto defines the sans-I/O contract of the protocol cores: the
// Event a core consumes, the Command it emits, and Machine, the two-method
// surface every core offers the generic machinery around it. The paper's
// protocols (Figures 6–9) are specified as reactive state machines — events
// in (frame indications, timer expiry, can-data.nty), actions out (queue a
// remote frame, set or cancel a timer, deliver a notification) — and a core
// is exactly that: a pure struct holding no scheduler, layer or trace
// handles, whose whole behaviour is a function of its configuration and the
// event sequence it consumed.
//
// Everything that drives a core does so through Machine alone. The runtime
// bindings (internal/stack, internal/gateway, internal/gossip) pump events
// in and execute the emitted commands against the simulated or live media;
// internal/replay re-executes cores from a recorded event log and asserts
// command-for-command equality; the exploration engine (internal/explore)
// drives cores through permuted event orderings with no bus simulation at
// all and prunes on their fingerprints. A new protocol core that satisfies
// Machine inherits all of it.
//
// Both Event and Command are comparable value types (payloads are inlined
// into a fixed array — a CAN payload is at most 8 bytes), so replay
// verification is plain ==, and both serialize to JSON for captured logs.
//
// # Allocation discipline
//
// A steady 1 Mbit/s bus delivers hundreds of frames per virtual second, and
// every delivery steps several cores at every node, so StepInto appends
// into a caller-owned, reusable CommandBuf instead of returning a fresh
// slice: once the buffer has grown to its high-water mark the loop
// allocates nothing. Trace output follows the same discipline: a trace
// command carries a trace.Msg plus operands inlined in the Command, never a
// string, and the binding turns it into a trace.Event only when a trace is
// attached. Text is rendered only when that trace is read.
package proto

import (
	"fmt"
	"hash/maphash"
	"strings"

	"canely/internal/can"
	"canely/internal/sim"
	"canely/internal/trace"
)

// Machine is the protocol contract: the surface core.Node, fd.FDA,
// fd.Detector, membership.RHA, membership.Protocol, federation.Core and
// gossip.Core share, and the only one the replay verifier, the exploration
// engine and the fingerprint property tests depend on.
type Machine interface {
	// StepInto consumes one event and appends the commands it produces to
	// buf, in execution order. It touches nothing but the core's own state.
	StepInto(ev Event, buf *CommandBuf)
	// Fingerprint writes the core's complete observable state into h: equal
	// states hash equal, and every state-mutating step perturbs the hash
	// (internal/fptest checks both).
	Fingerprint(h *maphash.Hash)
}

// TimerID names one of a core's logical timers. The binding owns the
// concrete alarm machinery; cores refer to timers only by these ids.
type TimerID uint8

const (
	// TimerFDScan is the failure detector's surveillance scan alarm: one
	// per node, chasing the earliest armed deadline (Figure 8).
	TimerFDScan TimerID = iota
	// TimerMshCycle is the membership cycle / join wait alarm (Figure 9).
	TimerMshCycle
	// TimerRHATerm is the RHA termination alarm Trha (Figure 7).
	TimerRHATerm
	// TimerFedAnnounce is the federation core's periodic digest announcement
	// alarm Tann (internal/federation).
	TimerFedAnnounce
	// TimerFedScan is the federation core's segment-staleness surveillance
	// alarm, chasing the earliest armed digest deadline like TimerFDScan.
	TimerFedScan
	// TimerGossipTick is the SWIM protocol-period alarm: every period the
	// gossip core probes its next round-robin target (internal/gossip).
	TimerGossipTick
	// TimerGossipAck is the SWIM probe deadline: direct-ack wait, then the
	// indirect (ping-req) wait of the probe in flight.
	TimerGossipAck
	// TimerGossipSuspect is the SWIM suspicion surveillance alarm, chasing
	// the earliest suspicion expiry like TimerFDScan.
	TimerGossipSuspect

	// NumTimers is the number of logical timers per node.
	NumTimers
)

// String names the timer.
func (t TimerID) String() string {
	switch t {
	case TimerFDScan:
		return "fd-scan"
	case TimerMshCycle:
		return "msh-cycle"
	case TimerRHATerm:
		return "rha-term"
	case TimerFedAnnounce:
		return "fed-announce"
	case TimerFedScan:
		return "fed-scan"
	case TimerGossipTick:
		return "gossip-tick"
	case TimerGossipAck:
		return "gossip-ack"
	case TimerGossipSuspect:
		return "gossip-suspect"
	}
	return fmt.Sprintf("timer(%d)", uint8(t))
}

// EventKind discriminates Event.
type EventKind uint8

const (
	// EvDataNty is can-data.nty: a data frame arrived (own transmissions
	// included), no payload. MID is set.
	EvDataNty EventKind = iota + 1
	// EvDataInd is can-data.ind: a data frame arrived with payload. MID and
	// Data are set.
	EvDataInd
	// EvRTRInd is can-rtr.ind: a remote frame arrived. MID is set.
	EvRTRInd
	// EvTimerFired reports expiry of the logical timer in Timer.
	EvTimerFired
	// EvBootstrap installs a pre-agreed initial view (View) at the
	// membership protocol.
	EvBootstrap
	// EvJoin is msh-can.req(JOIN).
	EvJoin
	// EvLeave is msh-can.req(LEAVE).
	EvLeave
	// EvFDStart is fd-can.req(START, Node): begin surveillance.
	EvFDStart
	// EvFDStop is fd-can.req(STOP, Node): end surveillance.
	EvFDStop
	// EvFDARequest is fda-can.req(Node): diffuse a failure-sign.
	EvFDARequest
	// EvFDACancel retracts a not-yet-observed local failure-sign request
	// for Node (surveillance was stopped while the request was in flight).
	EvFDACancel
	// EvFDANty is fda-can.nty(Node): a consistent failure-sign arrived.
	EvFDANty
	// EvFDNty is fd-can.nty(Node): the failure detector reports a crash.
	EvFDNty
	// EvRHARequest is rha-can.req: start a reception history agreement.
	EvRHARequest
	// EvRHAInit is rha-can.nty(INIT): an RHA execution began.
	EvRHAInit
	// EvRHAEnd is rha-can.nty(END, View): an RHA execution delivered the
	// agreed vector.
	EvRHAEnd
	// EvFedLocalView reports a segment-local membership view to the
	// federation core: Node carries the segment id, View the segment's
	// current member set (fed-can.nty in the hierarchical layer).
	EvFedLocalView
	// EvFDAForget clears the FDA diffusion counters for Node: the node
	// (re)entered the agreed membership view, so a later crash must be
	// agreeable afresh (fd.FDA.Forget's reintegration contract).
	EvFDAForget
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvDataNty:
		return "data-nty"
	case EvDataInd:
		return "data-ind"
	case EvRTRInd:
		return "rtr-ind"
	case EvTimerFired:
		return "timer"
	case EvBootstrap:
		return "bootstrap"
	case EvJoin:
		return "join"
	case EvLeave:
		return "leave"
	case EvFDStart:
		return "fd-start"
	case EvFDStop:
		return "fd-stop"
	case EvFDARequest:
		return "fda-req"
	case EvFDACancel:
		return "fda-cancel"
	case EvFDANty:
		return "fda-nty"
	case EvFDNty:
		return "fd-nty"
	case EvRHARequest:
		return "rha-req"
	case EvRHAInit:
		return "rha-init"
	case EvRHAEnd:
		return "rha-end"
	case EvFedLocalView:
		return "fed-local-view"
	case EvFDAForget:
		return "fda-forget"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one input to a protocol core. Which fields are meaningful
// depends on Kind; unused fields stay zero so Events compare with ==.
type Event struct {
	Kind EventKind `json:"kind"`
	// At is the virtual instant the event was delivered. Cores use it to
	// compute deadlines; it never selects behaviour by itself.
	At sim.Time `json:"at"`
	// MID is the message identifier of frame events.
	MID can.MID `json:"mid,omitempty"`
	// Data/DataLen inline the payload of EvDataInd (≤ 8 bytes on CAN).
	Data    [can.MaxData]byte `json:"data,omitempty"`
	DataLen uint8             `json:"dataLen,omitempty"`
	// Timer identifies the alarm of EvTimerFired.
	Timer TimerID `json:"timer,omitempty"`
	// Node is the argument of the fd/fda request and notification events.
	Node can.NodeID `json:"node,omitempty"`
	// View is the argument of EvBootstrap and EvRHAEnd.
	View can.NodeSet `json:"view,omitempty"`
}

// Payload returns the inlined data bytes.
func (e Event) Payload() []byte { return e.Data[:e.DataLen] }

// WithPayload copies p into the event (panics beyond can.MaxData, like
// can.Frame.SetPayload: payload sizing is a static protocol property).
func (e Event) WithPayload(p []byte) Event {
	if len(p) > can.MaxData {
		panic(fmt.Sprintf("proto: payload of %d bytes exceeds %d", len(p), can.MaxData))
	}
	e.DataLen = uint8(copy(e.Data[:], p))
	return e
}

// String renders the event compactly, e.g. "rtr-ind ELS(n03)".
func (e Event) String() string {
	var sb strings.Builder
	sb.WriteString(e.Kind.String())
	switch e.Kind {
	case EvDataNty, EvRTRInd:
		fmt.Fprintf(&sb, " %v", e.MID)
	case EvDataInd:
		fmt.Fprintf(&sb, " %v data=%x", e.MID, e.Payload())
	case EvTimerFired:
		fmt.Fprintf(&sb, " %v", e.Timer)
	case EvBootstrap, EvRHAEnd:
		fmt.Fprintf(&sb, " %v", e.View)
	case EvFDStart, EvFDStop, EvFDARequest, EvFDACancel, EvFDANty, EvFDNty:
		fmt.Fprintf(&sb, " %v", e.Node)
	case EvFedLocalView:
		fmt.Fprintf(&sb, " s%02d %v", int(e.Node), e.View)
	}
	return sb.String()
}

// CommandKind discriminates Command.
type CommandKind uint8

const (
	// CmdSendRTR queues a remote frame (can-rtr.req). If UnlessPending is
	// set the request is suppressed when a wire-equivalent transmit request
	// is already queued locally (the FDA re-diffusion guard, Figure 6 r06).
	CmdSendRTR CommandKind = iota + 1
	// CmdSendData queues a data frame (can-data.req) with the inlined
	// payload.
	CmdSendData
	// CmdAbort cancels a pending transmit request (can-abort.req).
	CmdAbort
	// CmdSetTimer (re)arms the logical timer to fire Delay from the event
	// that produced the command.
	CmdSetTimer
	// CmdCancelTimer disarms the logical timer.
	CmdCancelTimer
	// CmdTrace emits a diagnostic trace event (TraceMsg and its operands).
	CmdTrace
	// CmdNotifyView is msh-can.nty: deliver a membership change (Active,
	// Failed, Left) to the application.
	CmdNotifyView

	// The remaining kinds are inter-core notifications and requests. The
	// composite core (internal/core) routes them between the FDA, failure
	// detection, RHA and membership cores at their position in the command
	// stream — mirroring the synchronous upcalls of the layered stack — and
	// the binding treats them as notification hook points (or no-ops).

	// CmdFDARequest asks the FDA core to diffuse a failure-sign for Node.
	CmdFDARequest
	// CmdFDACancel retracts a local failure-sign request for Node.
	CmdFDACancel
	// CmdFDANty is fda-can.nty(Node): consistent failure-sign delivered.
	CmdFDANty
	// CmdFDNty is fd-can.nty(Node): the failure detector reports a crash.
	CmdFDNty
	// CmdFDStart is fd-can.req(START, Node).
	CmdFDStart
	// CmdFDStop is fd-can.req(STOP, Node).
	CmdFDStop
	// CmdRHARequest is rha-can.req.
	CmdRHARequest
	// CmdRHAInit is rha-can.nty(INIT).
	CmdRHAInit
	// CmdRHAEnd is rha-can.nty(END, View).
	CmdRHAEnd
	// CmdNotifySite is fed-can.nty: deliver a cross-segment site view change
	// (Active = live segment set, Failed = segments removed by this change)
	// to the application.
	CmdNotifySite
	// CmdFDAForget asks the FDA core to clear its diffusion counters for
	// Node, which just (re)entered the agreed membership view. Without it
	// a node expelled by a failure agreement and later readmitted could
	// never be expelled again: the stale counters swallow the new
	// failure-sign request.
	CmdFDAForget
)

// String names the command kind.
func (k CommandKind) String() string {
	switch k {
	case CmdSendRTR:
		return "send-rtr"
	case CmdSendData:
		return "send-data"
	case CmdAbort:
		return "abort"
	case CmdSetTimer:
		return "set-timer"
	case CmdCancelTimer:
		return "cancel-timer"
	case CmdTrace:
		return "trace"
	case CmdNotifyView:
		return "notify-view"
	case CmdFDARequest:
		return "fda-req"
	case CmdFDACancel:
		return "fda-cancel"
	case CmdFDANty:
		return "fda-nty"
	case CmdFDNty:
		return "fd-nty"
	case CmdFDStart:
		return "fd-start"
	case CmdFDStop:
		return "fd-stop"
	case CmdRHARequest:
		return "rha-req"
	case CmdRHAInit:
		return "rha-init"
	case CmdRHAEnd:
		return "rha-end"
	case CmdNotifySite:
		return "notify-site"
	case CmdFDAForget:
		return "fda-forget"
	}
	return fmt.Sprintf("command(%d)", uint8(k))
}

// Command is one output of a protocol core. Like Event it is a comparable
// value type.
type Command struct {
	Kind CommandKind `json:"kind"`
	// MID is the frame identifier of send/abort commands.
	MID can.MID `json:"mid,omitempty"`
	// UnlessPending suppresses CmdSendRTR when an equivalent transmit
	// request is already queued (evaluated by the executor at command
	// time, which is exactly when the layered implementation queried).
	UnlessPending bool `json:"unlessPending,omitempty"`
	// Data/DataLen inline the payload of CmdSendData.
	Data    [can.MaxData]byte `json:"data,omitempty"`
	DataLen uint8             `json:"dataLen,omitempty"`
	// Timer and Delay parameterize the timer commands.
	Timer TimerID      `json:"timer,omitempty"`
	Delay sim.Duration `json:"delay,omitempty"`
	// Node is the argument of the inter-core request/notification kinds.
	Node can.NodeID `json:"node,omitempty"`
	// Active, Failed and Left carry a CmdNotifyView change. Active doubles
	// as the old view of a view- or site-change trace command.
	Active can.NodeSet `json:"active,omitempty"`
	Failed can.NodeSet `json:"failed,omitempty"`
	Left   bool        `json:"left,omitempty"`
	// View is the agreed vector of CmdRHAEnd, and the new view or vector
	// operand of a trace command.
	View can.NodeSet `json:"rhaView,omitempty"`
	// TraceMsg is the message of a CmdTrace command; its operands live in
	// Node, Active and View (see TraceEvent).
	TraceMsg trace.Msg `json:"traceMsg,omitempty"`
}

// Payload returns the inlined data bytes.
func (c Command) Payload() []byte { return c.Data[:c.DataLen] }

// String renders the command compactly, e.g. "send-rtr FDA(n03)".
func (c Command) String() string {
	var sb strings.Builder
	sb.WriteString(c.Kind.String())
	switch c.Kind {
	case CmdSendRTR:
		fmt.Fprintf(&sb, " %v", c.MID)
		if c.UnlessPending {
			sb.WriteString(" unless-pending")
		}
	case CmdSendData:
		fmt.Fprintf(&sb, " %v data=%x", c.MID, c.Payload())
	case CmdAbort:
		fmt.Fprintf(&sb, " %v", c.MID)
	case CmdSetTimer:
		fmt.Fprintf(&sb, " %v %v", c.Timer, c.Delay)
	case CmdCancelTimer:
		fmt.Fprintf(&sb, " %v", c.Timer)
	case CmdTrace:
		fmt.Fprintf(&sb, " %s %q", c.TraceMsg.Kind(), c.TraceEvent(-1).Text())
	case CmdNotifyView:
		fmt.Fprintf(&sb, " active=%v failed=%v left=%t", c.Active, c.Failed, c.Left)
	case CmdFDARequest, CmdFDACancel, CmdFDAForget, CmdFDANty, CmdFDNty, CmdFDStart, CmdFDStop:
		fmt.Fprintf(&sb, " %v", c.Node)
	case CmdRHAEnd:
		fmt.Fprintf(&sb, " %v", c.View)
	case CmdNotifySite:
		fmt.Fprintf(&sb, " active=%v failed=%v", c.Active, c.Failed)
	}
	return sb.String()
}

// Constructors keep core code terse and uniform.

// SendRTR queues a remote frame.
func SendRTR(mid can.MID) Command { return Command{Kind: CmdSendRTR, MID: mid} }

// SendRTRUnlessPending queues a remote frame unless an equivalent request
// is already pending.
func SendRTRUnlessPending(mid can.MID) Command {
	return Command{Kind: CmdSendRTR, MID: mid, UnlessPending: true}
}

// SendData queues a data frame with the payload.
func SendData(mid can.MID, p []byte) Command {
	c := Command{Kind: CmdSendData, MID: mid}
	if len(p) > can.MaxData {
		panic(fmt.Sprintf("proto: payload of %d bytes exceeds %d", len(p), can.MaxData))
	}
	c.DataLen = uint8(copy(c.Data[:], p))
	return c
}

// Abort cancels a pending transmit request.
func Abort(mid can.MID) Command { return Command{Kind: CmdAbort, MID: mid} }

// SetTimer (re)arms a logical timer.
func SetTimer(id TimerID, d sim.Duration) Command {
	return Command{Kind: CmdSetTimer, Timer: id, Delay: d}
}

// CancelTimer disarms a logical timer.
func CancelTimer(id TimerID) Command { return Command{Kind: CmdCancelTimer, Timer: id} }

// TraceEvent returns a CmdTrace command's trace.Event as emitted by node:
// its operands map onto the event's (Node → Subject, Active → Old, View →
// New). The binding calls it only when a trace is attached.
func (c Command) TraceEvent(node int) trace.Event {
	return trace.Event{Node: node, Msg: c.TraceMsg, Subject: c.Node, Old: c.Active, New: c.View}
}

// TraceELS traces an explicit life-sign broadcast.
func TraceELS() Command { return Command{Kind: CmdTrace, TraceMsg: trace.MsgELS} }

// TraceTimerExpired traces a surveillance expiry for a remote node.
func TraceTimerExpired(r can.NodeID) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgTimerExpired, Node: r}
}

// TraceNodeFailed traces a consistent failure-sign agreement.
func TraceNodeFailed(r can.NodeID) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgNodeFailed, Node: r}
}

// TraceJoinRequested traces a local join request.
func TraceJoinRequested() Command { return Command{Kind: CmdTrace, TraceMsg: trace.MsgJoinRequested} }

// TraceJoinRetried traces a join retry after an unintegrated join wait.
func TraceJoinRetried() Command { return Command{Kind: CmdTrace, TraceMsg: trace.MsgJoinRetried} }

// TraceLeaveRequested traces a local leave request.
func TraceLeaveRequested() Command { return Command{Kind: CmdTrace, TraceMsg: trace.MsgLeaveRequested} }

// TraceViewChange traces a membership view update old -> new.
func TraceViewChange(old, now can.NodeSet) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgViewChange, Active: old, View: now}
}

// TraceRHAStart traces the initial vector of an RHA execution.
func TraceRHAStart(rhv can.NodeSet) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgRHAStart, View: rhv}
}

// TraceRHAEnd traces the agreed vector of a completed RHA execution.
func TraceRHAEnd(rhv can.NodeSet) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgRHAEnd, View: rhv}
}

// TraceFedDigest traces a federation digest announcement for a segment.
func TraceFedDigest(seg can.NodeID, view can.NodeSet) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgFedDigest, Node: seg, View: view}
}

// TraceSegmentStale traces a staleness expiry for a remote segment.
func TraceSegmentStale(seg can.NodeID) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgSegmentStale, Node: seg}
}

// TraceSiteChange traces a cross-segment site view update old -> new.
func TraceSiteChange(old, now can.NodeSet) Command {
	return Command{Kind: CmdTrace, TraceMsg: trace.MsgSiteChange, Active: old, View: now}
}

// NotifySite delivers a cross-segment site view change.
func NotifySite(active, failed can.NodeSet) Command {
	return Command{Kind: CmdNotifySite, Active: active, Failed: failed}
}

// NotifyView delivers a membership change.
func NotifyView(active, failed can.NodeSet, left bool) Command {
	return Command{Kind: CmdNotifyView, Active: active, Failed: failed, Left: left}
}

// FDARequest asks for failure-sign diffusion.
func FDARequest(failed can.NodeID) Command { return Command{Kind: CmdFDARequest, Node: failed} }

// FDACancel retracts a local failure-sign request.
func FDACancel(failed can.NodeID) Command { return Command{Kind: CmdFDACancel, Node: failed} }

// FDAForget clears the FDA diffusion counters for a node that (re)entered
// the agreed membership view.
func FDAForget(node can.NodeID) Command { return Command{Kind: CmdFDAForget, Node: node} }

// FDANty delivers fda-can.nty.
func FDANty(failed can.NodeID) Command { return Command{Kind: CmdFDANty, Node: failed} }

// FDNty delivers fd-can.nty.
func FDNty(failed can.NodeID) Command { return Command{Kind: CmdFDNty, Node: failed} }

// FDStart begins surveillance of a node.
func FDStart(r can.NodeID) Command { return Command{Kind: CmdFDStart, Node: r} }

// FDStop ends surveillance of a node.
func FDStop(r can.NodeID) Command { return Command{Kind: CmdFDStop, Node: r} }

// RHARequest starts a reception history agreement.
func RHARequest() Command { return Command{Kind: CmdRHARequest} }

// RHAInit delivers rha-can.nty(INIT).
func RHAInit() Command { return Command{Kind: CmdRHAInit} }

// RHAEnd delivers rha-can.nty(END, rhv).
func RHAEnd(rhv can.NodeSet) Command { return Command{Kind: CmdRHAEnd, View: rhv} }
