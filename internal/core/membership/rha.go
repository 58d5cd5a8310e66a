// Package membership implements the site membership half of the CANELy
// protocol suite: the Reception History Agreement (RHA) micro-protocol of
// Figure 7 and the site membership protocol of Figure 9.
//
// Both entities are sans-I/O state machines: they consume proto.Events and
// emit proto.Commands, and hold no scheduler, layer or trace handles. The
// runtime binding (internal/stack) executes the commands; the composite
// core (internal/core) routes the inter-core kinds (CmdRHARequest,
// CmdRHAInit, CmdRHAEnd, CmdFDStart, CmdFDStop, CmdFDNty).
package membership

import (
	"fmt"
	"hash/maphash"
	"maps"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
)

// RHAConfig parameterizes the reception history agreement.
type RHAConfig struct {
	// Trha is the protocol's maximum termination time: the local alarm
	// started when an execution begins. It must cover the bounded number
	// of convergence rounds [16].
	Trha time.Duration
	// J is the inconsistent omission degree bound (LCAN4): once more than
	// J copies of the current RHV value were observed, a pending local
	// retransmission request is aborted — even J inconsistent omissions
	// cannot have hidden the value from any correct node.
	J int
}

// Validate checks the configuration.
func (c RHAConfig) Validate() error {
	if c.Trha <= 0 {
		return fmt.Errorf("membership: RHA termination time must be positive, got %v", c.Trha)
	}
	if c.J < 0 {
		return fmt.Errorf("membership: inconsistent omission degree must be non-negative, got %d", c.J)
	}
	return nil
}

// SharedSets is what RHA shares with the site membership protocol
// (Figure 7, line i04: the full-member, joining and leaving node sets).
// The RHA core reads them live — the sets evolve between executions and a
// snapshot would go stale.
type SharedSets interface {
	FullMembers() can.NodeSet // Rf
	Joining() can.NodeSet     // Rj
	Leaving() can.NodeSet     // Rl
}

// RHA is the reception history agreement protocol core at one node. Each
// member proposes a reception history vector (RHV); executions converge, by
// pairwise intersection of circulating vectors, on a value delivered
// identically at all correct nodes within Trha.
type RHA struct {
	cfg   RHAConfig
	env   SharedSets
	local can.NodeID

	running bool
	rhv     can.NodeSet
	ndup    map[can.NodeSet]int
	pending can.MID
	hasPend bool

	// Executions counts completed protocol runs (diagnostics).
	Executions int
}

// NewRHA creates the protocol core. The env is typically the membership
// Protocol of the same node (which implements SharedSets).
func NewRHA(local can.NodeID, cfg RHAConfig, env SharedSets) (*RHA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !local.Valid() {
		return nil, fmt.Errorf("membership: invalid local node id %d", local)
	}
	return &RHA{cfg: cfg, env: env, local: local, ndup: make(map[can.NodeSet]int)}, nil
}

// Clone returns an independent deep copy of the core bound to env. The
// environment is identity, not state: a cloned node hands the clone of its
// own membership protocol, so the copy keeps reading its sets live without
// aliasing the original's.
func (r *RHA) Clone(env SharedSets) *RHA {
	c := *r
	c.env = env
	c.ndup = maps.Clone(r.ndup)
	return &c
}

// CopyFrom replaces r's state with a deep copy of src's, rebinding the
// shared-set environment and reusing r's duplicate-counter map storage —
// the allocation-free restore path of the exploration engine's snapshot
// pool.
func (r *RHA) CopyFrom(src *RHA, env SharedSets) {
	m := r.ndup
	*r = *src
	r.env = env
	clear(m)
	for k, v := range src.ndup {
		m[k] = v
	}
	r.ndup = m
}

// Running reports whether an execution is in progress.
func (r *RHA) Running() bool { return r.running }

// Fingerprint writes the core's complete mutable state into h. The ndup
// map has no canonical iteration order, so its entries are folded
// order-independently with MixPair/XOR; the pending mid is meaningful only
// while hasPend is set and is skipped otherwise.
func (r *RHA) Fingerprint(h *maphash.Hash) {
	proto.HashU64(h, uint64(r.local))
	proto.HashBool(h, r.running)
	proto.HashU64(h, uint64(r.rhv))
	var acc uint64
	for k, v := range r.ndup {
		if v != 0 {
			acc ^= proto.MixPair(uint64(k), uint64(v))
		}
	}
	proto.HashU64(h, acc)
	proto.HashBool(h, r.hasPend)
	if r.hasPend {
		proto.HashU64(h, uint64(r.pending.Encode()))
	}
	proto.HashU64(h, uint64(r.Executions))
}

// StepInto consumes one event, appending the resulting commands to buf.
func (r *RHA) StepInto(ev proto.Event, buf *proto.CommandBuf) {
	switch ev.Kind {
	case proto.EvRHARequest:
		r.request(buf)
	case proto.EvDataInd:
		r.onDataInd(ev.MID, ev.Payload(), buf)
	case proto.EvTimerFired:
		if ev.Timer == proto.TimerRHATerm {
			r.expire(buf)
		}
	}
}

// request starts an execution (rha-can.req, Figure 7 lines s00–s04). Only
// full members may start the protocol in isolation; joining nodes
// participate once they receive an RHV signal. Requests during a running
// execution are absorbed.
func (r *RHA) request(buf *proto.CommandBuf) {
	if !r.env.FullMembers().Contains(r.local) {
		return
	}
	if r.running {
		return
	}
	r.initSend(can.FullSet, buf)
}

// initSend implements rha-init-send (lines a00–a09): establish the initial
// vector, arm the termination alarm, broadcast and notify INIT upward.
func (r *RHA) initSend(rw can.NodeSet, buf *proto.CommandBuf) {
	r.running = true
	buf.Put(proto.SetTimer(proto.TimerRHATerm, r.cfg.Trha))
	if r.env.FullMembers().Contains(r.local) {
		// Full-member initial vector: ((Rf ∪ Rj) − Rl) ∩ Rw.
		r.rhv = r.env.FullMembers().Union(r.env.Joining()).Diff(r.env.Leaving()).Intersect(rw)
	} else {
		// Nodes in a joining process have no valid view; they adopt the
		// received vector (line a05).
		r.rhv = rw
	}
	buf.Put(proto.TraceRHAStart(r.rhv))
	buf.Put(r.sendRHV())
	buf.Put(proto.RHAInit())
}

// sendRHV broadcasts the current vector under mid {RHA, #RHV, local}.
func (r *RHA) sendRHV() proto.Command {
	mid := can.RHASign(r.rhv.Count(), r.local)
	r.pending = mid
	r.hasPend = true
	return proto.SendData(mid, r.rhv.Bytes())
}

// onDataInd handles RHV signal arrivals (lines r00–r13), own transmissions
// included (they bump the duplicate counter like any other copy).
func (r *RHA) onDataInd(mid can.MID, data []byte, buf *proto.CommandBuf) {
	if mid.Type != can.TypeRHA {
		return
	}
	remote, err := can.SetFromBytes(data)
	if err != nil {
		// A malformed RHV would be a protocol bug, not a simulated fault:
		// corrupted frames never reach delivery (MCAN2).
		panic(fmt.Sprintf("membership: malformed RHV payload: %v", err))
	}
	r.ndup[remote]++
	switch {
	case !r.running:
		r.initSend(remote, buf)
	case r.rhv.Intersect(remote) != r.rhv:
		// The received vector excludes nodes we still carry: abort our
		// outstanding proposal, adopt the intersection, rebroadcast
		// (lines r04–r07).
		if r.hasPend {
			buf.Put(proto.Abort(r.pending))
		}
		r.rhv = r.rhv.Intersect(remote)
		buf.Put(r.sendRHV())
	case r.rhv == remote && r.ndup[remote] > r.cfg.J:
		// More than J copies of our exact value are circulating: even J
		// inconsistent omissions cannot have hidden it from any correct
		// node, so our own (re)transmission is redundant (line r08).
		if r.hasPend {
			r.hasPend = false
			buf.Put(proto.Abort(r.pending))
		}
	}
}

// expire ends the execution (lines r14–r18): deliver END with the agreed
// vector and reset protocol state.
func (r *RHA) expire(buf *proto.CommandBuf) {
	rhv := r.rhv
	buf.Put(proto.TraceRHAEnd(rhv))
	// Quench any leftover transmit request: with an adequate Trha it has
	// long been transmitted and this is a no-op; under pathological
	// overload it prevents a stale vector from triggering a spurious
	// post-termination execution at every node.
	if r.hasPend {
		buf.Put(proto.Abort(r.pending))
		r.hasPend = false
	}
	r.running = false
	r.rhv = can.EmptySet
	clear(r.ndup)
	r.Executions++
	buf.Put(proto.RHAEnd(rhv))
}
