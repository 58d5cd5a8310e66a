// Package datagram is the gossip baseline's medium: a point-to-point, lossy
// packet network with none of CAN's physical-layer guarantees. Where
// internal/bus and internal/fastbus model a shared wire — arbitration,
// wired-AND clustering, consistent frame completion — datagram models the
// asynchronous-network environment the gossip baseline (internal/gossip)
// is designed for:
//
//   - every node owns a full-duplex interface serializing its own frames
//     independently (no arbitration, no priority inversion, no shared-wire
//     occupancy);
//   - each ordered (sender, receiver) link samples drop, delay and
//     duplication from its own seeded stream, so a run is reproducible per
//     seed and perturbing one link never shifts the draws of another
//     (sim.RNG.Split discipline, internal/fault's seeded-script spirit);
//   - delivery is per-receiver: a frame addressed to the gossip
//     destination (can.TypeGossip) is unicast; any other frame fans out to
//     every other attached node with independent link sampling — a "lossy
//     broadcast" that deliberately breaks the consistent-omission property
//     the CANELy agreement argument rests on.
//
// Senders still observe CAN-shaped local semantics — mailbox transmit
// requests, completion confirms, own-frame loopback — so the network
// satisfies the stack.Medium/stack.Port contract (the stack package's
// conformance suite runs against it); what changes is only what the
// network promises. It is deliberately not a stack.NewMedium substrate:
// CANELy's agreement argument needs the CAN properties it lacks.
package datagram

import (
	"fmt"
	"strconv"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/sim"
)

// LinkParams is the per-link perturbation distribution.
type LinkParams struct {
	// Drop is the probability a copy is lost in transit.
	Drop float64
	// DelayMin is the propagation floor added to every delivered copy.
	DelayMin time.Duration
	// DelayJitter widens the delay to DelayMin + U[0, DelayJitter).
	DelayJitter time.Duration
	// Duplicate is the probability a delivered copy arrives twice (the
	// second copy samples its own delay).
	Duplicate float64
}

// Validate checks the distribution parameters.
func (p LinkParams) Validate() error {
	if p.Drop < 0 || p.Drop >= 1 {
		return fmt.Errorf("datagram: drop probability %v outside [0,1)", p.Drop)
	}
	if p.Duplicate < 0 || p.Duplicate >= 1 {
		return fmt.Errorf("datagram: duplicate probability %v outside [0,1)", p.Duplicate)
	}
	if p.DelayMin < 0 || p.DelayJitter < 0 {
		return fmt.Errorf("datagram: negative delay parameters")
	}
	return nil
}

// Config parameterizes the network.
type Config struct {
	// Rate is the per-interface serialization rate; defaults to 1 Mbit/s.
	Rate can.BitRate
	// Seed roots the per-link sampling streams.
	Seed int64
	// Link is the default distribution applied to every ordered link.
	Link LinkParams
	// PerLink overrides the distribution for specific ordered (from, to)
	// pairs; nil keeps Link everywhere.
	PerLink func(from, to can.NodeID) LinkParams
}

// Net is the simulated packet network. Create one with New, attach Ports,
// then run the scheduler.
type Net struct {
	sched *sim.Scheduler
	rate  can.BitRate
	cfg   Config
	root  *sim.RNG

	ports [can.MaxNodes]*Port
	order []can.NodeID
	alive can.NodeSet

	// links is indexed [from][to]; a sender's row is allocated when it
	// first transmits.
	links [can.MaxNodes]*[can.MaxNodes]link
	// free recycles in-flight copy records.
	free []*inflight

	// stats reads BitsBusy as aggregate serialized bits across all
	// interfaces (there is no shared wire to occupy), FramesError as
	// dropped copies and FramesInconsistent as duplicated copies — the
	// closest analogue of "the wire disagreed with the sender" this
	// substrate has.
	stats bus.Stats
}

// link is the state of one ordered (from, to) pair: its distribution and
// its private sampling stream (nil until the link first carries a frame).
type link struct {
	p   LinkParams
	rng *sim.RNG
}

// inflight is one copy travelling toward dst. Records are recycled through
// Net.free and fire is bound once per record, so scheduling an arrival
// makes no closure.
type inflight struct {
	net  *Net
	dst  *Port
	f    can.Frame
	fire func()
}

// New builds a network on the given scheduler.
func New(sched *sim.Scheduler, cfg Config) *Net {
	if sched == nil {
		panic("datagram: nil scheduler")
	}
	if cfg.Rate == 0 {
		cfg.Rate = can.Rate1Mbps
	}
	if err := cfg.Link.Validate(); err != nil {
		panic(err)
	}
	return &Net{
		sched: sched,
		rate:  cfg.Rate,
		cfg:   cfg,
		root:  sim.NewRNG(cfg.Seed),
	}
}

// Attach connects a new interface for the node. Attaching an id twice
// panics. Attachment is allowed at any virtual time: a port attached after
// traffic started simply misses what was delivered before it existed.
func (n *Net) Attach(id can.NodeID) *Port {
	if !id.Valid() {
		panic(fmt.Sprintf("datagram: invalid node id %d", id))
	}
	if n.ports[id] != nil {
		panic(fmt.Sprintf("datagram: node %v attached twice", id))
	}
	p := &Port{net: n, id: id, alive: true}
	p.completeFn = p.complete
	n.ports[id] = p
	n.order = append(n.order, id)
	n.alive = n.alive.Add(id)
	return p
}

// Rate returns the per-interface serialization rate.
func (n *Net) Rate() can.BitRate { return n.rate }

// AliveSet returns the set of operational nodes.
func (n *Net) AliveSet() can.NodeSet { return n.alive }

// Stats returns a snapshot of the accumulated network statistics.
func (n *Net) Stats() bus.Stats { return n.stats }

// Elapsed returns the network's time base. Monotone: it reads the
// scheduler clock, which never moves backwards.
func (n *Net) Elapsed() time.Duration { return time.Duration(n.sched.Now()) }

// Dropped returns the number of copies lost in transit.
func (n *Net) Dropped() int { return n.stats.FramesError }

// linkFor returns (lazily creating) the state of the ordered link.
func (n *Net) linkFor(from, to can.NodeID) *link {
	row := n.links[from]
	if row == nil {
		row = new([can.MaxNodes]link)
		n.links[from] = row
	}
	l := &row[to]
	if l.rng != nil {
		return l
	}
	l.p = n.cfg.Link
	if n.cfg.PerLink != nil {
		l.p = n.cfg.PerLink(from, to)
		if err := l.p.Validate(); err != nil {
			panic(err)
		}
	}
	var buf [16]byte
	name := append(buf[:0], "link/"...)
	name = strconv.AppendUint(name, uint64(from), 10)
	name = append(name, "->"...)
	name = strconv.AppendUint(name, uint64(to), 10)
	l.rng = n.root.Split(string(name))
	return l
}

// transmit routes a serialized frame: unicast for gossip traffic, lossy
// fan-out for everything else. Each copy samples its link independently.
func (n *Net) transmit(from can.NodeID, f can.Frame) {
	n.stats.RecordSuccess(f, can.FrameBits(f))
	if mid, err := can.DecodeMID(f.ID); err == nil && mid.Type == can.TypeGossip {
		n.deliver(from, can.GossipDest(mid), f)
		return
	}
	for _, id := range n.order {
		if id != from {
			n.deliver(from, id, f)
		}
	}
}

// deliver samples one link and schedules the arriving copies.
func (n *Net) deliver(from, to can.NodeID, f can.Frame) {
	dst := n.ports[to]
	if dst == nil || !dst.alive {
		return
	}
	l := n.linkFor(from, to)
	if l.rng.Bool(l.p.Drop) {
		n.stats.FramesError++
		return
	}
	n.arrive(dst, f, l)
	if l.rng.Bool(l.p.Duplicate) {
		n.stats.FramesInconsistent++
		n.arrive(dst, f, l)
	}
}

// arrive schedules one copy's arrival after its sampled delay. Liveness is
// re-checked at arrival time: a receiver that crashed while the copy was
// in flight hears nothing, but a sender crash cannot recall it.
func (n *Net) arrive(dst *Port, f can.Frame, l *link) {
	delay := sim.Duration(l.p.DelayMin) + l.rng.Duration(sim.Duration(l.p.DelayJitter))
	var c *inflight
	if k := len(n.free); k > 0 {
		c = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		c = &inflight{net: n}
		c.fire = c.land
	}
	c.dst, c.f = dst, f
	n.sched.After(delay, c.fire)
}

// land delivers the copy. The record returns to the free list before the
// handler runs, so nothing the handler sets off can find it still in use.
func (c *inflight) land() {
	dst, f := c.dst, c.f
	c.dst = nil
	c.net.free = append(c.net.free, c)
	if dst.alive && dst.handler != nil {
		dst.rxOK++
		dst.handler.OnFrame(f, false)
	}
}
