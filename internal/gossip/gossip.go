// Package gossip implements a SWIM-style failure detector and membership
// protocol as a sans-I/O core — the asynchronous-network baseline the
// CANELy comparison study measures against (ROADMAP item 1, in the spirit
// of Das/Gupta/Motivala's SWIM and the unreliable-failure-detector
// literature).
//
// The protocol assumes nothing the CANELy stack gets for free from CAN's
// wired-AND: no broadcast, no arbitration, no consistent omission. Every
// message is a unicast datagram that may be dropped, delayed or
// duplicated (internal/datagram). Failure detection is therefore
// probabilistic — probe timeouts instead of bounded-delay surveillance —
// and membership is disseminated epidemically by piggybacking updates on
// the probe traffic instead of being agreed via RHA.
//
// One protocol period (Config.Period):
//
//	tick     pick the next round-robin member M, send ping(M), arm the
//	         ack deadline
//	ack      deadline 1 (AckTimeout): no direct ack — send ping-req(M)
//	         to Fanout other members, which forward a ping to M on our
//	         behalf; M acks the origin directly
//	ack      deadline 2 (2×AckTimeout): still no ack — suspect M and
//	         gossip suspect(M, inc)
//	suspect  SuspectTimeout later, an unrefuted suspicion is confirmed:
//	         M is declared dead and removed from the view
//
// A node that learns it is suspected refutes by incrementing its own
// incarnation and gossiping alive(self, inc'): per-node state forms a
// lattice ordered by (incarnation, alive < suspect < dead), so updates
// commute and every node converges on the highest point it has seen.
//
// The core follows the same contract as the seven CANELy cores: pure
// StepInto(proto.Event, *proto.CommandBuf), comparable value state, O(1)
// Clone, residue-free Fingerprint — so the explorer, checkpointing,
// record/replay and fuzzing machinery apply verbatim.
package gossip

import (
	"fmt"
	"hash/maphash"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/sim"
)

// Config parameterizes the SWIM core.
type Config struct {
	// Period is the protocol period T: one probe per period.
	Period time.Duration
	// AckTimeout is the wait for a direct ack before falling back to
	// indirect probing, and then for an indirect ack before suspecting.
	// The full probe (2×AckTimeout) must fit inside one period.
	AckTimeout time.Duration
	// SuspectTimeout is how long a suspicion stands before the node is
	// declared dead; the window in which the suspect can refute. Refutation
	// travels over piggybacked gossip hops, so this should span several
	// periods (SWIM's suspicion multiplier).
	SuspectTimeout time.Duration
	// Fanout is the number of ping-req relays asked to probe indirectly.
	Fanout int
	// Retransmit is the per-update piggyback budget: how many outgoing
	// messages carry a membership update before it falls silent
	// (SWIM's λ·log n dissemination parameter, fixed small here because
	// the frame-addressable cluster is capped at can.MaxNodes).
	Retransmit int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("gossip: period must be positive, got %v", c.Period)
	}
	if c.AckTimeout <= 0 {
		return fmt.Errorf("gossip: ack timeout must be positive, got %v", c.AckTimeout)
	}
	if 2*c.AckTimeout > c.Period {
		return fmt.Errorf("gossip: probe 2×AckTimeout %v exceeds period %v", 2*c.AckTimeout, c.Period)
	}
	if c.SuspectTimeout <= 0 {
		return fmt.Errorf("gossip: suspect timeout must be positive, got %v", c.SuspectTimeout)
	}
	if c.Fanout < 1 {
		return fmt.Errorf("gossip: fanout must be at least 1, got %d", c.Fanout)
	}
	if c.Retransmit < 1 {
		return fmt.Errorf("gossip: retransmit budget must be at least 1, got %d", c.Retransmit)
	}
	return nil
}

// DefaultConfig returns the parameters used by the simulation studies.
func DefaultConfig() Config {
	return Config{
		Period:         20 * time.Millisecond,
		AckTimeout:     5 * time.Millisecond,
		SuspectTimeout: 120 * time.Millisecond,
		Fanout:         2,
		Retransmit:     4,
	}
}

// Message kinds, carried in the high nibble of the mid Ref; the low nibble
// is a 4-bit probe sequence number.
const (
	kindPing    = 1 // payload[0] = origin the ack must be sent to
	kindAck     = 2 // answers a ping; matched on (Src, seq)
	kindPingReq = 3 // payload[0] = subject to probe on the sender's behalf
	kindJoin    = 4 // sender asks to be admitted; answered with an ack
)

// Per-node status in the update lattice. Rank order matters: at equal
// incarnation the higher status wins.
const (
	stNone    uint8 = iota // never heard of
	stAlive                // member in good standing
	stSuspect              // unrefuted probe failure
	stDead                 // confirmed failed, removed from the view
)

// packRef packs a message kind and probe sequence into a mid Ref.
func packRef(kind, seq uint8) uint8 { return kind<<4 | seq&0x0F }

// Core is the SWIM protocol core at one node. All state is inline value
// state — no pointers, maps or slices — so Clone is a struct copy.
type Core struct {
	cfg   Config
	local can.NodeID

	started bool // bootstrap or join consumed; timers running
	left    bool // voluntary leave requested

	// The update lattice: st/inc are meaningful for ids in
	// members ∪ dead; members = alive ∪ suspects, disjoint from dead.
	st       [can.MaxNodes]uint8
	inc      [can.MaxNodes]uint8
	members  can.NodeSet
	suspects can.NodeSet
	dead     can.NodeSet

	// Round-robin probe rotation and the probe in flight.
	nextIdx  uint8
	probeSeq uint8
	probing  bool
	indirect bool
	target   can.NodeID

	// Suspicion expiries, chasing-minimum (fd.Detector pattern): a slot is
	// meaningful only while its suspects bit is set, scanAt only while
	// scanPending.
	suspectAt   [can.MaxNodes]sim.Time
	scanAt      sim.Time
	scanPending bool

	// Piggyback queue: one entry per node, refreshed whenever the node's
	// lattice point advances; sends is the remaining transmission budget.
	// pbCursor rotates the scan start so no node id starves when more
	// entries hold budget than one payload fits.
	queue    [can.MaxNodes]queueEntry
	pbCursor uint8

	// msgs counts outgoing gossip messages for the bandwidth experiments.
	// Diagnostic only — never hashed, so it cannot split equal states.
	msgs int
}

type queueEntry struct {
	st    uint8
	inc   uint8
	sends uint8
}

// New creates the protocol core for the given node.
func New(local can.NodeID, cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !local.Valid() {
		return nil, fmt.Errorf("gossip: invalid local node id %d", local)
	}
	g := &Core{cfg: cfg, local: local}
	g.st[local] = stAlive
	g.members = can.MakeSet(local)
	return g, nil
}

// Clone returns an independent deep copy of the core.
func (g *Core) Clone() *Core {
	c := *g
	return &c
}

// Restore overwrites the core's state with src's (same node, same config).
func (g *Core) Restore(src *Core) { *g = *src }

// View returns the current membership view: every node believed alive or
// suspected, the local node included.
func (g *Core) View() can.NodeSet { return g.members }

// Alive returns the members not currently under suspicion.
func (g *Core) Alive() can.NodeSet { return g.members.Diff(g.suspects) }

// Suspects returns the members currently under suspicion.
func (g *Core) Suspects() can.NodeSet { return g.suspects }

// Dead returns the nodes this core has confirmed failed.
func (g *Core) Dead() can.NodeSet { return g.dead }

// Incarnation returns the highest incarnation known for node n.
func (g *Core) Incarnation(n can.NodeID) uint8 { return g.inc[n] }

// Msgs returns the number of gossip messages sent.
func (g *Core) Msgs() int { return g.msgs }

// Quiet reports that no probe is in flight, nothing is suspected and the
// piggyback queue is drained: the only activity reachable from here (with
// all members responsive) is periodic ping/ack traffic.
func (g *Core) Quiet() bool {
	if g.probing || !g.suspects.Empty() {
		return false
	}
	for n := range g.queue {
		if g.queue[n].sends > 0 {
			return false
		}
	}
	return true
}

// Fingerprint writes the core's complete mutable state into h. Lattice
// slots are meaningful only for members ∪ dead, suspicion deadlines only
// while the suspects bit is set, probe fields only while probing — the
// unguarded residue is skipped so logically equal states hash equal.
func (g *Core) Fingerprint(h *maphash.Hash) {
	proto.HashU64(h, uint64(g.local))
	proto.HashBool(h, g.started)
	proto.HashBool(h, g.left)
	proto.HashU64(h, uint64(g.members))
	proto.HashU64(h, uint64(g.suspects))
	proto.HashU64(h, uint64(g.dead))
	for s := g.members.Union(g.dead); !s.Empty(); {
		n := s.Lowest()
		s = s.Remove(n)
		proto.HashU64(h, uint64(g.st[n])<<8|uint64(g.inc[n]))
	}
	for s := g.suspects; !s.Empty(); {
		n := s.Lowest()
		s = s.Remove(n)
		proto.HashU64(h, uint64(g.suspectAt[n]))
	}
	proto.HashBool(h, g.scanPending)
	if g.scanPending {
		proto.HashU64(h, uint64(g.scanAt))
	}
	proto.HashU64(h, uint64(g.nextIdx)<<16|uint64(g.probeSeq)<<8|uint64(g.pbCursor))
	proto.HashBool(h, g.probing)
	if g.probing {
		proto.HashBool(h, g.indirect)
		proto.HashU64(h, uint64(g.target))
	}
	for n := range g.queue {
		if q := g.queue[n]; q.sends > 0 {
			proto.HashU64(h, uint64(n)<<24|uint64(q.st)<<16|uint64(q.inc)<<8|uint64(q.sends))
		}
	}
}

// StepInto consumes one event, appending the resulting commands to buf.
func (g *Core) StepInto(ev proto.Event, buf *proto.CommandBuf) {
	switch ev.Kind {
	case proto.EvBootstrap:
		g.bootstrap(ev, buf)
	case proto.EvJoin:
		g.join(ev, buf)
	case proto.EvLeave:
		g.leave(ev, buf)
	case proto.EvDataInd:
		// Traffic before bootstrap/join is discarded: accepting it would
		// build lattice state the initial-view installation then clobbers.
		if g.started && ev.MID.Type == can.TypeGossip && can.GossipDest(ev.MID) == g.local {
			g.receive(ev, buf)
		}
	case proto.EvTimerFired:
		if !g.started {
			return
		}
		switch ev.Timer {
		case proto.TimerGossipTick:
			g.tick(ev.At, buf)
		case proto.TimerGossipAck:
			g.ackExpired(ev.At, buf)
		case proto.TimerGossipSuspect:
			g.suspectScan(ev.At, buf)
		}
	}
}

// bootstrap installs a pre-agreed initial view and starts the period.
func (g *Core) bootstrap(ev proto.Event, buf *proto.CommandBuf) {
	if g.started {
		return
	}
	g.started = true
	old := g.members
	for s := ev.View; !s.Empty(); {
		n := s.Lowest()
		s = s.Remove(n)
		g.st[n] = stAlive
		g.members = g.members.Add(n)
	}
	if g.members != old {
		buf.Put(proto.TraceViewChange(old, g.members))
		buf.Put(proto.NotifyView(g.members, 0, false))
	}
	buf.Put(proto.SetTimer(proto.TimerGossipTick, sim.Duration(g.cfg.Period)))
}

// join starts the core as a joiner: ev.View names the seed contacts the
// join request is sent to. The contacts admit the joiner and answer with
// acks whose piggyback introduces the membership.
func (g *Core) join(ev proto.Event, buf *proto.CommandBuf) {
	if g.started {
		return
	}
	g.started = true
	for s := ev.View.Remove(g.local); !s.Empty(); {
		n := s.Lowest()
		s = s.Remove(n)
		g.sendMsg(kindJoin, 0, n, 0, buf)
	}
	buf.Put(proto.SetTimer(proto.TimerGossipTick, sim.Duration(g.cfg.Period)))
}

// leave gossips dead(self) voluntarily. The core keeps ticking so the
// update disseminates; peers remove us as left rather than failed only in
// the sense that the update precedes any suspicion.
func (g *Core) leave(ev proto.Event, buf *proto.CommandBuf) {
	if !g.started || g.left {
		return
	}
	g.left = true
	g.enqueue(g.local, stDead, g.inc[g.local])
	buf.Put(proto.TraceLeaveRequested())
	buf.Put(proto.NotifyView(g.members.Remove(g.local), 0, true))
}

// tick opens a protocol period: resolve a probe the previous period left
// hanging, pick the next round-robin target, ping it.
func (g *Core) tick(now sim.Time, buf *proto.CommandBuf) {
	if g.probing {
		// Period ended with the probe unresolved (only reachable when the
		// binding delays the ack alarm past the period): count it failed.
		g.probeFailed(now, buf)
	}
	if t, ok := g.nextTarget(); ok {
		g.probeSeq = (g.probeSeq + 1) & 0x0F
		g.probing, g.indirect, g.target = true, false, t
		g.sendMsg(kindPing, g.probeSeq, t, g.local, buf)
		buf.Put(proto.SetTimer(proto.TimerGossipAck, sim.Duration(g.cfg.AckTimeout)))
	}
	buf.Put(proto.SetTimer(proto.TimerGossipTick, sim.Duration(g.cfg.Period)))
}

// nextTarget scans the id space round-robin for the next probeable member.
func (g *Core) nextTarget() (can.NodeID, bool) {
	cand := g.members.Remove(g.local)
	if cand.Empty() {
		return 0, false
	}
	for i := 1; i <= can.MaxNodes; i++ {
		n := can.NodeID((int(g.nextIdx) + i) % can.MaxNodes)
		if cand.Contains(n) {
			g.nextIdx = uint8(n)
			return n, true
		}
	}
	return 0, false
}

// ackExpired advances the probe state machine: direct wait → indirect
// wait → suspicion.
func (g *Core) ackExpired(now sim.Time, buf *proto.CommandBuf) {
	if !g.probing {
		return // stale alarm: the ack arrived first
	}
	if !g.indirect {
		g.indirect = true
		relays := g.members.Remove(g.local).Remove(g.target)
		for k := 0; k < g.cfg.Fanout && !relays.Empty(); k++ {
			r := relays.Lowest()
			relays = relays.Remove(r)
			g.sendMsg(kindPingReq, g.probeSeq, r, g.target, buf)
		}
		// Retry the direct path alongside the relays: one lost datagram
		// must not be enough to put a suspicion in circulation.
		g.sendMsg(kindPing, g.probeSeq, g.target, g.local, buf)
		buf.Put(proto.SetTimer(proto.TimerGossipAck, sim.Duration(g.cfg.AckTimeout)))
		return
	}
	g.probeFailed(now, buf)
}

// probeFailed suspects the unresponsive target.
func (g *Core) probeFailed(now sim.Time, buf *proto.CommandBuf) {
	t := g.target
	g.probing = false
	g.applyUpdate(t, stSuspect, g.inc[t], now, buf)
}

// receive handles a gossip message addressed to this node.
func (g *Core) receive(ev proto.Event, buf *proto.CommandBuf) {
	kind, seq := ev.MID.Ref>>4, ev.MID.Ref&0x0F
	src := ev.MID.Src
	p := ev.Payload()
	aux, auxOK := can.NodeID(0), false
	if len(p) > 0 && can.NodeID(p[0]).Valid() {
		aux, auxOK = can.NodeID(p[0]), true
	}
	// A message from a node we confirmed dead is a contradiction worth
	// gossiping about: re-queue the death verdict so our reply carries it;
	// a live sender refutes with a higher incarnation and the false
	// removal heals (anti-entropy for drained update queues).
	if g.st[src] == stDead {
		g.enqueue(src, stDead, g.inc[src])
	}
	// Piggybacked updates apply first on every kind: an ack can carry the
	// very suspicion it refutes.
	refuted := false
	for i := 1; i+1 < len(p); i += 2 {
		n := can.NodeID(p[i] & 0x3F)
		st := p[i] >> 6
		if st == 0 || st > stDead || !n.Valid() {
			continue
		}
		if n == g.local && st != stAlive && !g.left {
			refuted = true
		}
		g.applyUpdate(n, st, p[i+1], ev.At, buf)
	}
	// A refutation must reach the node that voiced the claim, not only the
	// targets our rotation happens to visit next: if this exchange's reply
	// would not go back to src, send it one directly. The refutation entry
	// was just enqueued with a full budget, so it rides the piggyback.
	replyToSrc := kind == kindJoin || (kind == kindPing && (!auxOK || aux == src))
	if refuted && !replyToSrc {
		g.sendMsg(kindAck, seq, src, g.local, buf)
	}
	switch kind {
	case kindPing:
		// aux is the probe origin the ack must reach (the relay path of a
		// ping-req ends with the subject acking the origin directly).
		origin := src
		if auxOK {
			origin = aux
		}
		g.sendMsg(kindAck, seq, origin, g.local, buf)
	case kindAck:
		if g.probing && src == g.target && seq == g.probeSeq {
			g.probing = false
			buf.Put(proto.CancelTimer(proto.TimerGossipAck))
		}
	case kindPingReq:
		// Probe aux on src's behalf: forward a ping telling the subject to
		// ack src directly, echoing src's sequence number.
		if auxOK && aux != g.local {
			g.sendMsg(kindPing, seq, aux, src, buf)
		}
	case kindJoin:
		// Admit the joiner: its (re)join supersedes any prior lattice
		// point, and every current member's entry is re-queued so the
		// joiner learns the view from our next few piggybacks.
		next := g.inc[src]
		if g.st[src] != stNone && g.st[src] != stAlive {
			next++
		}
		g.applyUpdate(src, stAlive, next, ev.At, buf)
		for s := g.members; !s.Empty(); {
			n := s.Lowest()
			s = s.Remove(n)
			g.enqueue(n, g.st[n], g.inc[n])
		}
		g.sendMsg(kindAck, seq, src, g.local, buf)
	}
}

// supersedes reports whether (st, inc) advances node n's lattice point.
func (g *Core) supersedes(n can.NodeID, st, inc uint8) bool {
	cur := g.st[n]
	if cur == stNone {
		return true
	}
	if inc != g.inc[n] {
		return inc > g.inc[n]
	}
	return st > cur
}

// applyUpdate merges one membership update into the lattice, queues it for
// dissemination if it advanced, and emits view notifications on member-set
// changes. Updates about the local node are special: a suspicion or death
// claim is refuted by bumping our incarnation and gossiping alive.
func (g *Core) applyUpdate(n can.NodeID, st, inc uint8, now sim.Time, buf *proto.CommandBuf) {
	if n == g.local && st != stAlive && !g.left {
		if inc >= g.inc[g.local] {
			g.inc[g.local] = inc + 1
		}
		// Re-circulate the refutation even against a stale claim: the
		// claimer's copy of our alive update may have drained from every
		// queue, and an unanswered claim converts to a false removal.
		g.enqueue(g.local, stAlive, g.inc[g.local])
		return
	}
	if !g.supersedes(n, st, inc) {
		return
	}
	old := g.members
	g.st[n], g.inc[n] = st, inc
	switch st {
	case stAlive:
		g.members = g.members.Add(n)
		g.suspects = g.suspects.Remove(n)
		g.dead = g.dead.Remove(n)
	case stSuspect:
		g.members = g.members.Add(n)
		g.dead = g.dead.Remove(n)
		if !g.suspects.Contains(n) {
			g.suspects = g.suspects.Add(n)
			g.suspectAt[n] = now + sim.Time(g.cfg.SuspectTimeout)
			g.ensureSuspectScan(now, buf)
		}
	case stDead:
		g.members = g.members.Remove(n)
		g.suspects = g.suspects.Remove(n)
		g.dead = g.dead.Add(n)
		if g.probing && g.target == n {
			g.probing = false
			buf.Put(proto.CancelTimer(proto.TimerGossipAck))
		}
	}
	g.enqueue(n, st, inc)
	if g.members != old {
		buf.Put(proto.TraceViewChange(old, g.members))
		var failed can.NodeSet
		if st == stDead {
			failed = can.MakeSet(n)
		}
		buf.Put(proto.NotifyView(g.members, failed, false))
	}
}

// suspectScan confirms every suspicion whose timeout has expired and
// re-arms the scan at the earliest remaining expiry.
func (g *Core) suspectScan(now sim.Time, buf *proto.CommandBuf) {
	g.scanPending = false
	for s := g.suspects; !s.Empty(); {
		n := s.Lowest()
		s = s.Remove(n)
		if g.suspectAt[n] <= now {
			buf.Put(proto.TraceNodeFailed(n))
			g.applyUpdate(n, stDead, g.inc[n], now, buf)
		}
	}
	g.ensureSuspectScan(now, buf)
}

// ensureSuspectScan keeps the single suspicion alarm chasing the earliest
// armed expiry (the fd.Detector scan pattern): re-arm only when the
// earliest deadline moved ahead of the pending alarm.
func (g *Core) ensureSuspectScan(now sim.Time, buf *proto.CommandBuf) {
	earliest, any := sim.Time(0), false
	for s := g.suspects; !s.Empty(); {
		n := s.Lowest()
		s = s.Remove(n)
		if !any || g.suspectAt[n] < earliest {
			earliest, any = g.suspectAt[n], true
		}
	}
	if !any {
		if g.scanPending {
			g.scanPending = false
			buf.Put(proto.CancelTimer(proto.TimerGossipSuspect))
		}
		return
	}
	if g.scanPending && g.scanAt <= earliest {
		return
	}
	g.scanPending, g.scanAt = true, earliest
	d := earliest - now
	if d <= 0 {
		d = 1 // defensive: timer delays stay strictly positive
	}
	buf.Put(proto.SetTimer(proto.TimerGossipSuspect, sim.Duration(d)))
}

// enqueue refreshes node n's piggyback entry with a full send budget.
func (g *Core) enqueue(n can.NodeID, st, inc uint8) {
	if st == stNone {
		return
	}
	g.queue[n] = queueEntry{st: st, inc: inc, sends: uint8(g.cfg.Retransmit)}
}

// sendMsg emits one gossip message: kind and seq in the Ref, aux in
// payload[0], and as many queued membership updates as fit piggybacked
// behind it.
func (g *Core) sendMsg(kind, seq uint8, dest, aux can.NodeID, buf *proto.CommandBuf) {
	var p [can.MaxData]byte
	p[0] = byte(aux)
	w := 1
	for i := 0; i < can.MaxNodes && w+1 < len(p); i++ {
		n := (int(g.pbCursor) + i) % can.MaxNodes
		q := &g.queue[n]
		if q.sends == 0 {
			continue
		}
		q.sends--
		p[w] = byte(n) | q.st<<6
		p[w+1] = q.inc
		w += 2
	}
	g.pbCursor = (g.pbCursor + 1) % can.MaxNodes
	buf.Put(proto.SendData(can.GossipSign(dest, g.local, packRef(kind, seq)), p[:w]))
	g.msgs++
}
