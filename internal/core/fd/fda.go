// Package fd implements the node failure detection half of the CANELy
// protocol suite: the Failure Detection Agreement (FDA) micro-protocol of
// Figure 6 and the node failure detection protocol of Figure 8.
//
// FDA secures the reliable broadcast of a failure-sign message — a
// simplified and optimized "Eager Diffusion" (EDCAN) specialized to CAN
// remote frames: when a node's surveillance timer expires, the detecting
// node broadcasts a failure-sign remote frame; every recipient of the first
// copy delivers the notification upward and, in the absence of an
// equivalent pending transmit request, requests a retransmission of the
// same remote frame. Because identical remote frames cluster on the wire,
// the diffusion typically costs a single extra physical frame, yet it
// guarantees that even if the original transmission was inconsistently
// omitted at some nodes and the detector crashed, every correct node still
// delivers the failure notification.
//
// Both entities are sans-I/O state machines: they consume proto.Events and
// emit proto.Commands, and hold no scheduler, layer or trace handles. The
// runtime binding (internal/stack) executes the commands; the composite
// core (internal/core) routes the inter-core kinds.
package fd

import (
	"hash/maphash"

	"canely/internal/can"
	"canely/internal/core/proto"
)

// FDA is the failure detection agreement micro-protocol core at one node.
type FDA struct {
	// fsNdup counts failure-sign duplicates per failed node; fsNreq counts
	// local transmit requests. Names follow Figure 6. Indexed by node id:
	// these counters sit on the remote-frame indication path.
	fsNdup [can.MaxNodes]int
	fsNreq [can.MaxNodes]int
}

// NewFDA creates the protocol core.
func NewFDA() *FDA { return &FDA{} }

// Clone returns an independent deep copy of the core.
func (f *FDA) Clone() *FDA {
	c := *f
	return &c
}

// StepInto consumes one event, appending the resulting commands to buf.
func (f *FDA) StepInto(ev proto.Event, buf *proto.CommandBuf) {
	switch ev.Kind {
	case proto.EvFDARequest:
		f.request(ev.Node, buf)
	case proto.EvFDACancel:
		f.cancel(ev.Node, buf)
	case proto.EvFDAForget:
		if ev.Node.Valid() {
			f.Forget(ev.Node)
		}
	case proto.EvRTRInd:
		f.onRTRInd(ev.MID, buf)
	}
}

// request invokes the protocol for a failed node (fda-can.req, Figure 6
// lines s00–s05): a single transmit request for the failure-sign message.
func (f *FDA) request(failed can.NodeID, buf *proto.CommandBuf) {
	if !failed.Valid() {
		return
	}
	f.fsNreq[failed]++
	if f.fsNreq[failed] == 1 {
		buf.Put(proto.SendRTR(can.FDASign(failed)))
	}
}

// cancel retracts the local failure-sign request for a node whose
// surveillance was stopped before any copy of the sign was observed. Once
// a copy has circulated the sign is public knowledge and must diffuse; the
// retraction then has no effect.
func (f *FDA) cancel(failed can.NodeID, buf *proto.CommandBuf) {
	if !failed.Valid() {
		return
	}
	if f.fsNreq[failed] == 0 || f.fsNdup[failed] != 0 {
		return
	}
	f.fsNreq[failed] = 0
	buf.Put(proto.Abort(can.FDASign(failed)))
}

// onRTRInd handles failure-sign arrivals (Figure 6 lines r00–r09). The
// first copy is delivered upward and eagerly re-diffused unless an
// equivalent transmit request is already pending (own included — the
// can-rtr.ind covers own transmissions, so the original sender counts its
// own frame as the first duplicate and does not re-request).
func (f *FDA) onRTRInd(mid can.MID, buf *proto.CommandBuf) {
	if mid.Type != can.TypeFDA {
		return
	}
	failed := can.NodeID(mid.Param)
	if !failed.Valid() {
		return
	}
	f.fsNdup[failed]++
	if f.fsNdup[failed] != 1 {
		return
	}
	buf.Put(proto.FDANty(failed))
	f.fsNreq[failed]++
	if f.fsNreq[failed] == 1 {
		buf.Put(proto.SendRTRUnlessPending(mid))
	}
}

// Fingerprint writes the core's complete mutable state into h (see the
// encoding rules in proto's fingerprint helpers). The counter arrays are
// sparse, so only non-zero slots are written, preceded by their count.
func (f *FDA) Fingerprint(h *maphash.Hash) {
	n := 0
	for i := range f.fsNdup {
		if f.fsNdup[i] != 0 || f.fsNreq[i] != 0 {
			n++
		}
	}
	proto.HashU64(h, uint64(n))
	for i := range f.fsNdup {
		if f.fsNdup[i] != 0 || f.fsNreq[i] != 0 {
			proto.HashU64(h, uint64(i))
			proto.HashU64(h, uint64(f.fsNdup[i]))
			proto.HashU64(h, uint64(f.fsNreq[i]))
		}
	}
}

// Duplicates returns how many failure-sign copies were observed for a node
// (diagnostics and the protocol-efficiency experiments).
func (f *FDA) Duplicates(failed can.NodeID) int { return f.fsNdup[failed] }

// Forget clears protocol state for a node, allowing a much-later
// reintegration to fail again. The paper assumes a removed node "does not
// initiate a reintegration attempt before a period much higher than Tm has
// elapsed"; the membership layer calls Forget when that period is safely
// over (at reintegration).
func (f *FDA) Forget(failed can.NodeID) {
	f.fsNdup[failed] = 0
	f.fsNreq[failed] = 0
}
