// Package core composes the four sans-I/O protocol cores of one CANELy
// node — failure detection agreement (FDA), node failure detection, the
// reception history agreement (RHA) and site membership — into a single
// Node that is itself a proto.Machine: one StepInto(Event, *CommandBuf)
// entry point, one Fingerprint.
//
// The sub-cores talk to each other through inter-core command kinds
// (CmdFDARequest, CmdFDANty, CmdFDNty, CmdRHARequest, ...). Node routes
// each such command depth-first at its position in the stream: the target
// core steps on the matching event, the routed expansion is spliced in
// BEFORE the marker command itself, and the marker stays in the stream so
// the runtime binding can surface it as a boundary notification hook. This
// reproduces exactly the effect ordering of the layered implementation,
// where inter-entity notifications were synchronous upcalls running before
// the caller's next statement and before any boundary observer.
//
// Node is still pure: StepInto touches no scheduler, bus or trace
// machinery, so the composite can be re-executed from a recorded event log
// (internal/replay) or driven through permuted event orderings
// (internal/explore) with bit-identical results.
package core

import (
	"hash/maphash"

	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/sim"
)

// Config parameterizes one node's protocol cores.
type Config struct {
	FD         fd.Config
	Membership membership.Config
}

// Node is the composite protocol core of one CANELy node.
type Node struct {
	ID  can.NodeID
	FDA *fd.FDA
	Det *fd.Detector
	Msh *membership.Protocol
	RHA *membership.RHA

	// scratch is the reusable routing buffer: each sub-core step appends
	// into it, the new segment is walked for inter-core expansion, and the
	// buffer is truncated back. Steps never run concurrently (a core is
	// single-node state), so one buffer per Node suffices; it grows to the
	// deepest routing chain once and steady-state steps allocate nothing.
	scratch proto.CommandBuf
}

// New builds the composite core. The RHA core reads the membership
// protocol's Rf/Rj/Rl sets live (Figure 7 line i04).
func New(id can.NodeID, cfg Config) (*Node, error) {
	det, err := fd.NewDetector(id, cfg.FD)
	if err != nil {
		return nil, err
	}
	msh, err := membership.New(id, cfg.Membership)
	if err != nil {
		return nil, err
	}
	rha, err := membership.NewRHA(id, cfg.Membership.RHA, msh)
	if err != nil {
		return nil, err
	}
	return &Node{ID: id, FDA: fd.NewFDA(), Det: det, Msh: msh, RHA: rha}, nil
}

// Clone returns an independent deep copy of the composite core: every
// sub-core cloned, the RHA environment re-bound to the cloned membership
// protocol, and a fresh routing scratch (the scratch is transient and
// empty between steps).
func (n *Node) Clone() *Node {
	msh := n.Msh.Clone()
	return &Node{
		ID:  n.ID,
		FDA: n.FDA.Clone(),
		Det: n.Det.Clone(),
		Msh: msh,
		RHA: n.RHA.Clone(msh),
	}
}

// Restore replaces n's state with a deep copy of src's, reusing n's
// storage — the allocation-free path the exploration engine's snapshot
// pool restores nodes through. The scratch buffer keeps n's own storage.
func (n *Node) Restore(src *Node) {
	n.ID = src.ID
	*n.FDA = *src.FDA
	*n.Det = *src.Det
	*n.Msh = *src.Msh
	n.RHA.CopyFrom(src.RHA, n.Msh)
}

// Fingerprint writes the composite core's complete mutable state into h:
// the node identity followed by every sub-core's fingerprint in a fixed
// order. The scratch routing buffer is transient (empty between steps) and
// carries no state, so it is excluded.
func (n *Node) Fingerprint(h *maphash.Hash) {
	proto.HashU64(h, uint64(n.ID))
	n.FDA.Fingerprint(h)
	n.Det.Fingerprint(h)
	n.Msh.Fingerprint(h)
	n.RHA.Fingerprint(h)
}

// StepInto consumes one event, dispatching it to the interested sub-cores
// in the order the layered stack registered their indication handlers, and
// routes inter-core commands. The fully-expanded command stream is appended
// to out in execution order.
func (n *Node) StepInto(ev proto.Event, out *proto.CommandBuf) {
	switch ev.Kind {
	case proto.EvRTRInd:
		// Handler order of the layered stack: FDA, detector, membership.
		n.subStep(n.FDA, ev, out)
		n.subStep(n.Det, ev, out)
		n.subStep(n.Msh, ev, out)
	case proto.EvDataNty:
		n.subStep(n.Det, ev, out)
		n.subStep(n.Msh, ev, out)
	case proto.EvDataInd:
		n.subStep(n.RHA, ev, out)
	case proto.EvTimerFired:
		switch ev.Timer {
		case proto.TimerFDScan:
			n.subStep(n.Det, ev, out)
		case proto.TimerMshCycle:
			n.subStep(n.Msh, ev, out)
		case proto.TimerRHATerm:
			n.subStep(n.RHA, ev, out)
		}
	case proto.EvBootstrap, proto.EvJoin, proto.EvLeave, proto.EvFDNty,
		proto.EvRHAInit, proto.EvRHAEnd:
		n.subStep(n.Msh, ev, out)
	case proto.EvFDStart, proto.EvFDStop, proto.EvFDANty:
		n.subStep(n.Det, ev, out)
	case proto.EvFDARequest, proto.EvFDACancel, proto.EvFDAForget:
		n.subStep(n.FDA, ev, out)
	case proto.EvRHARequest:
		n.subStep(n.RHA, ev, out)
	}
}

// subStep lets one sub-core consume ev, then routes its emission into out:
// each inter-core command's depth-first expansion is spliced in before the
// command itself.
//
// The emission lands in a segment [mark, Len) of the shared scratch buffer.
// Each command is copied out by value before the recursive expansion (which
// reuses the scratch past the segment and may grow, i.e. reallocate, it),
// and the segment is truncated away when the walk completes — so the
// scratch's high-water mark is the deepest routing chain ever taken, after
// which no step allocates.
func (n *Node) subStep(s proto.Machine, ev proto.Event, out *proto.CommandBuf) {
	mark := n.scratch.Len()
	s.StepInto(ev, &n.scratch)
	for i := mark; i < n.scratch.Len(); i++ {
		c := n.scratch.At(i)
		n.expand(c, ev.At, out)
		out.Put(c)
	}
	n.scratch.Truncate(mark)
}

// expand routes one inter-core command to its target core; marker commands
// of other kinds expand to nothing.
func (n *Node) expand(c proto.Command, at sim.Time, out *proto.CommandBuf) {
	switch c.Kind {
	case proto.CmdFDARequest:
		n.subStep(n.FDA, proto.Event{Kind: proto.EvFDARequest, At: at, Node: c.Node}, out)
	case proto.CmdFDACancel:
		n.subStep(n.FDA, proto.Event{Kind: proto.EvFDACancel, At: at, Node: c.Node}, out)
	case proto.CmdFDAForget:
		n.subStep(n.FDA, proto.Event{Kind: proto.EvFDAForget, At: at, Node: c.Node}, out)
	case proto.CmdFDANty:
		n.subStep(n.Det, proto.Event{Kind: proto.EvFDANty, At: at, Node: c.Node}, out)
	case proto.CmdFDNty:
		n.subStep(n.Msh, proto.Event{Kind: proto.EvFDNty, At: at, Node: c.Node}, out)
	case proto.CmdFDStart:
		n.subStep(n.Det, proto.Event{Kind: proto.EvFDStart, At: at, Node: c.Node}, out)
	case proto.CmdFDStop:
		n.subStep(n.Det, proto.Event{Kind: proto.EvFDStop, At: at, Node: c.Node}, out)
	case proto.CmdRHARequest:
		n.subStep(n.RHA, proto.Event{Kind: proto.EvRHARequest, At: at}, out)
	case proto.CmdRHAInit:
		n.subStep(n.Msh, proto.Event{Kind: proto.EvRHAInit, At: at}, out)
	case proto.CmdRHAEnd:
		n.subStep(n.Msh, proto.Event{Kind: proto.EvRHAEnd, At: at, View: c.View}, out)
	}
}
