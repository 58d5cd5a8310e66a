package explore

import (
	"hash/maphash"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/replay"
	"canely/internal/sim"
)

// never is the horizon sentinel: after every reachable instant, but far
// enough from overflow that adding a skew to it stays ordered.
const never = sim.Time(1 << 62)

// protocol is what the explorer must be told about the protocol under
// exploration beyond proto.Machine. System and Engine know nothing else
// about the cores they drive: canely.go and swim.go hold the two
// descriptions, Scenario.protocol picks one.
type protocol interface {
	// nodeConfig is node id's configuration as a replay log records it;
	// the node itself is built from it.
	nodeConfig(id can.NodeID) replay.NodeConfig
	// joinEvent is the integration request a joiner is stepped on at t=0.
	joinEvent(bootstrap can.NodeSet) proto.Event
	// clone deep-copies a node, restore overwrites dst with src's state in
	// dst's storage.
	clone(m proto.Machine) proto.Machine
	restore(dst, src proto.Machine)
	// checkSafety is the per-step invariant of one live node; checkTerminal
	// its end-of-schedule liveness and agreement check against the view the
	// survivors must share.
	checkSafety(id can.NodeID, m proto.Machine) error
	checkTerminal(id can.NodeID, m proto.Machine, want can.NodeSet) error
	// quiescent reports a live node in a steady state, holding view want,
	// that no remaining step can lead out of (see System.quiescent).
	quiescent(m proto.Machine, want can.NodeSet) bool
}

// frame is one pending transmission on the modelled bus.
type frame struct {
	mid     can.MID
	rtr     bool
	data    [can.MaxData]byte
	dataLen uint8
	sender  can.NodeID
	sentAt  sim.Time
}

// entry is one slot of the pending-frame arena. Live entries form a
// doubly-linked queue in transmit-request order (head oldest); dead slots
// chain through next on the free list and are reused by the next push. The
// arena therefore never grows past the live high-water mark, every queue
// operation — push, first-match abort, clustering kill, the fused
// enabled/horizon walk — is O(live frames), and a snapshot of the queue is
// a plain slice copy: no index maps to maintain, rebuild or clone.
type entry struct {
	f    frame
	prev int32 // previous live entry, -1 at the head
	next int32 // next live entry, -1 at the tail; free-list chain when dead
	live bool
}

// actionKind discriminates action.
type actionKind uint8

const (
	actFrame actionKind = iota // deliver a pending frame
	actTimer                   // fire a due timer
	actCrash                   // crash the scenario's crash node
)

// action is one schedulable step.
type action struct {
	kind  actionKind
	frame int32 // entries index, actFrame only
	node  can.NodeID
	timer proto.TimerID
}

// actionID is a frame action's schedule-independent identity, the unit the
// POR sleep sets track: delivering "the frame (sender, mid, rtr, payload)"
// commutes or conflicts with other actions regardless of its queue
// position. The payload is part of the identity (exactly, not hashed —
// can.MaxData is 8, so it fits a uint64): two pending data frames under the
// same (sender, mid) but with different payloads are distinct actions, and
// sleeping one must not silence the other.
type actionID struct {
	sender can.NodeID
	mid    can.MID
	rtr    bool
	payLen uint8
	pay    uint64
}

// System is one system instance under exploration: the pure cores of every
// node plus the modelled MAC layer (pending-frame queue with the broadcast,
// clustering and bounded-delay properties the protocols assume) and the
// per-node logical timers. It is rebuilt per schedule and driven through
// one decision vector.
type System struct {
	scen *Scenario
	desc protocol

	now sim.Time
	// nodes holds one core per node id, all of the concrete type the
	// protocol description builds (a pointer, so the slot allocates
	// nothing).
	nodes   []proto.Machine
	alive   []bool
	crashed bool

	// Pending-frame queue: slot arena threaded by a doubly-linked live
	// list in queue order (head..tail) plus a free-slot chain. liveFrames
	// counts live entries.
	entries    []entry
	head       int32
	tail       int32
	free       int32
	liveFrames int

	// timers[n][id] is node n's armed deadline for logical timer id;
	// armedTimers[n] is the bitmask of armed ids.
	timers      [][proto.NumTimers]sim.Time
	armedTimers []uint8

	// rec, when non-nil, captures every core Step for counterexample
	// replay.
	rec *replay.Log

	// Reused scratch. The engine's state hash lives here, not on its stack:
	// cores fingerprint through proto.Machine, so the hash they write into
	// escapes — one per pooled System instead of one per run.
	buf     proto.CommandBuf
	hash    maphash.Hash
	actions []action
	due     []action
}

// NewSystem builds a fresh system at its initial state: bootstrap members
// installed, joiners requesting integration. The scenario must outlive the
// system. rec, when non-nil, records every core step (replay capture).
func NewSystem(scen *Scenario, rec *replay.Log) (*System, error) {
	s := &System{scen: scen, desc: scen.protocol(), rec: rec, head: -1, tail: -1, free: -1}
	s.timers = make([][proto.NumTimers]sim.Time, scen.Nodes)
	s.armedTimers = make([]uint8, scen.Nodes)
	for i := 0; i < scen.Nodes; i++ {
		nc := s.desc.nodeConfig(can.NodeID(i))
		m, err := nc.New()
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.Register(nc)
		}
		s.nodes = append(s.nodes, m)
		s.alive = append(s.alive, true)
	}
	for v := scen.Bootstrap; !v.Empty(); {
		r := v.Lowest()
		v = v.Remove(r)
		s.step(r, proto.Event{Kind: proto.EvBootstrap, View: scen.Bootstrap})
	}
	for v := scen.Joiners; !v.Empty(); {
		r := v.Lowest()
		v = v.Remove(r)
		s.step(r, s.desc.joinEvent(scen.Bootstrap))
	}
	return s, nil
}

// step pumps one event into a node's core and applies the resulting
// command stream to the modelled bus and alarms. Inter-core commands were
// already routed inside the core; marker/trace kinds are no-ops here.
func (s *System) step(n can.NodeID, ev proto.Event) {
	s.buf.Reset()
	s.nodes[n].StepInto(ev, &s.buf)
	if s.rec != nil {
		s.rec.Append(n, ev, s.buf.Commands())
	}
	for i := 0; i < s.buf.Len(); i++ {
		c := s.buf.At(i)
		switch c.Kind {
		case proto.CmdSendRTR:
			if c.UnlessPending && s.pendingRTR(c.MID) {
				continue
			}
			s.push(frame{mid: c.MID, rtr: true, sender: n, sentAt: s.now})
		case proto.CmdSendData:
			f := frame{mid: c.MID, sender: n, sentAt: s.now}
			f.dataLen = uint8(copy(f.data[:], c.Payload()))
			s.push(f)
		case proto.CmdAbort:
			s.abort(n, c.MID)
		case proto.CmdSetTimer:
			s.timers[n][c.Timer] = s.now.Add(time.Duration(c.Delay))
			s.armedTimers[n] |= 1 << c.Timer
		case proto.CmdCancelTimer:
			s.armedTimers[n] &^= 1 << c.Timer
		}
	}
}

// push appends a frame at the tail of the pending queue, reusing a free
// slot when one exists.
func (s *System) push(f frame) {
	idx := s.free
	if idx >= 0 {
		s.free = s.entries[idx].next
	} else {
		idx = int32(len(s.entries))
		s.entries = append(s.entries, entry{})
	}
	s.entries[idx] = entry{f: f, prev: s.tail, next: -1, live: true}
	if s.tail >= 0 {
		s.entries[s.tail].next = idx
	} else {
		s.head = idx
	}
	s.tail = idx
	s.liveFrames++
}

// pendingRTR reports whether any remote frame with the mid is queued. The
// live list rarely exceeds a handful of frames, so the scan beats the
// hash-map lookup it replaced.
func (s *System) pendingRTR(mid can.MID) bool {
	for i := s.head; i >= 0; i = s.entries[i].next {
		if s.entries[i].f.rtr && s.entries[i].f.mid == mid {
			return true
		}
	}
	return false
}

// abort removes the oldest pending frame of (sender, mid), mirroring the
// layered implementation's first-match removal.
func (s *System) abort(sender can.NodeID, mid can.MID) {
	for i := s.head; i >= 0; i = s.entries[i].next {
		if f := &s.entries[i].f; f.sender == sender && f.mid == mid {
			s.kill(i)
			return
		}
	}
}

// kill unlinks entry idx from the live queue and pushes the slot onto the
// free chain.
func (s *System) kill(idx int32) {
	e := &s.entries[idx]
	if !e.live {
		return
	}
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.live = false
	e.next = s.free
	s.free = idx
	s.liveFrames--
}

// enabled appends the schedulable actions to the system's reused action
// buffer in deterministic order: pending frames (queue order), due timers
// (deadline, then node, then timer id), the crash. The returned slice is
// valid until the next enabled call.
//
// A timer is schedulable when its deadline respects the frame-delivery
// bound (horizon) and lies within Skew of the earliest armed deadline:
// timers on one virtual clock fire in deadline order, but near-simultaneous
// deadlines (bootstrap-synchronized scans, the members' cycle timers) race
// within clock jitter — exactly the races worth exploring. Without the
// bound the search would "explore" unreal schedules that starve a node's
// timers forever.
func (s *System) enabled() []action {
	out := s.actions[:0]
	// One pass over the live queue yields both the frame actions (queue
	// order) and the horizon — the latest instant a timer may fire at, since
	// every pending frame must be delivered within Ttd of its request.
	h := never
	for i := s.head; i >= 0; i = s.entries[i].next {
		out = append(out, action{kind: actFrame, frame: i})
		if d := s.entries[i].f.sentAt.Add(s.scen.Ttd); d < h {
			h = d
		}
	}
	minD := never
	for n := range s.timers {
		armed := s.armedTimers[n]
		for id := proto.TimerID(0); id < proto.NumTimers; id++ {
			if armed&(1<<id) != 0 && s.timers[n][id] < minD {
				minD = s.timers[n][id]
			}
		}
	}
	due := s.due[:0]
	for n := range s.timers {
		armed := s.armedTimers[n]
		for id := proto.TimerID(0); id < proto.NumTimers; id++ {
			if armed&(1<<id) == 0 {
				continue
			}
			if d := s.timers[n][id]; d <= h && d <= minD.Add(s.scen.Skew) {
				due = append(due, action{kind: actTimer, node: can.NodeID(n), timer: id})
			}
		}
	}
	// Insertion sort by (deadline, node, id): due lists are tiny, and the
	// comparator must match the original harness exactly so naive
	// enumeration is schedule-for-schedule identical.
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && s.timerLess(due[j], due[j-1]); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	s.due = due
	out = append(out, due...)
	if s.scen.HasCrash && !s.crashed && s.now <= s.scen.CrashBy {
		out = append(out, action{kind: actCrash})
	}
	s.actions = out
	return out
}

func (s *System) timerLess(a, b action) bool {
	da, db := s.timers[a.node][a.timer], s.timers[b.node][b.timer]
	if da != db {
		return da < db
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.timer < b.timer
}

// id returns a frame action's schedule-independent identity; timer and
// crash actions are identified by their fields directly and never enter a
// sleep set.
func (s *System) id(a action) actionID {
	f := &s.entries[a.frame].f
	id := actionID{sender: f.sender, mid: f.mid, rtr: f.rtr, payLen: f.dataLen}
	for i := 0; i < int(f.dataLen); i++ {
		id.pay |= uint64(f.data[i]) << (8 * i)
	}
	return id
}

// apply executes one schedulable action.
func (s *System) apply(a action) {
	switch a.kind {
	case actCrash:
		s.crashed = true
		s.alive[s.scen.Crash] = false
		for i := s.head; i >= 0; {
			next := s.entries[i].next
			if s.entries[i].f.sender == s.scen.Crash {
				s.kill(i)
			}
			i = next
		}
		s.armedTimers[s.scen.Crash] = 0
	case actTimer:
		d := s.timers[a.node][a.timer]
		s.armedTimers[a.node] &^= 1 << a.timer
		if d > s.now {
			s.now = d
		}
		s.step(a.node, proto.Event{
			Kind: proto.EvTimerFired, Timer: a.timer, At: s.now, Node: a.node,
		})
	case actFrame:
		f := s.entries[a.frame].f
		// Identical remote frames merge into the one transmission the
		// receivers observe (the clustering property the FDA relies on);
		// identical data frames from one sender collapse the same way.
		for i := s.head; i >= 0; {
			next := s.entries[i].next
			if e := &s.entries[i].f; e.mid == f.mid && (f.rtr && e.rtr || !f.rtr && e.sender == f.sender) {
				s.kill(i)
			}
			i = next
		}
		// Gossip traffic is point-to-point: only the addressed node hears
		// the frame (the datagram substrate's routing), and there is no
		// observation notification — a datagram network has no shared wire
		// to observe. Everything else is broadcast.
		first, end := 0, s.scen.Nodes
		unicast := f.mid.Type == can.TypeGossip
		if unicast {
			first = int(can.GossipDest(f.mid))
			end = min(first+1, end)
		}
		for n := first; n < end; n++ {
			if !s.alive[n] {
				continue
			}
			if s.scen.Drop && can.NodeID(n) == s.scen.DropNode && f.mid.Type == s.scen.DropType {
				continue
			}
			if f.rtr && !unicast {
				s.step(can.NodeID(n), proto.Event{Kind: proto.EvRTRInd, MID: f.mid, At: s.now})
				continue
			}
			if !unicast {
				s.step(can.NodeID(n), proto.Event{Kind: proto.EvDataNty, MID: f.mid, At: s.now})
			}
			ev := proto.Event{Kind: proto.EvDataInd, MID: f.mid, At: s.now}
			ev.Data = f.data
			ev.DataLen = f.dataLen
			s.step(can.NodeID(n), ev)
		}
	}
}

// Fingerprint writes the complete system state into h: virtual time, the
// crash flag, liveness bits, every node's core fingerprint, the
// pending-frame queue and the armed timers. Pending frames are written in
// queue order with a count prefix (queue order is itself part of the state:
// it fixes the decision indexing of every future schedule); timer slots are
// written only while armed. Two Systems reached by different schedules hash
// equal exactly when no future action sequence can distinguish them.
func (s *System) Fingerprint(h *maphash.Hash) {
	proto.HashU64(h, uint64(s.now))
	proto.HashBool(h, s.crashed)
	var aliveBits uint64
	for n, a := range s.alive {
		if a {
			aliveBits |= 1 << n
		}
	}
	proto.HashU64(h, aliveBits)
	for _, nd := range s.nodes {
		nd.Fingerprint(h)
	}
	proto.HashU64(h, uint64(s.liveFrames))
	for i := s.head; i >= 0; i = s.entries[i].next {
		f := &s.entries[i].f
		proto.HashU64(h, uint64(f.sender))
		proto.HashU64(h, uint64(f.mid.Encode()))
		proto.HashBool(h, f.rtr)
		proto.HashU64(h, uint64(f.sentAt))
		proto.HashU64(h, uint64(f.dataLen))
		var pay uint64
		for j := 0; j < int(f.dataLen); j++ {
			pay |= uint64(f.data[j]) << (8 * j)
		}
		proto.HashU64(h, pay)
	}
	for n := range s.timers {
		proto.HashU64(h, uint64(s.armedTimers[n]))
		armed := s.armedTimers[n]
		for id := proto.TimerID(0); id < proto.NumTimers; id++ {
			if armed&(1<<id) != 0 {
				proto.HashU64(h, uint64(s.timers[n][id]))
			}
		}
	}
}

// stepFirst applies enabled()[0] without materializing the action list —
// the fast path for the deterministic tail of a run, where the decision
// budget is exhausted and choice 0 is always taken. Frames precede timers
// in enabled(), so any queued frame means action 0 is the queue head. With
// no frames pending the horizon is never, so the earliest armed deadline is
// always due and within any skew of itself; ties break by (node, id), which
// the ascending scan already yields. With no timers either, the crash is
// action 0 when schedulable. Returns false when nothing is enabled.
func (s *System) stepFirst() bool {
	if s.head >= 0 {
		s.apply(action{kind: actFrame, frame: s.head})
		return true
	}
	best := action{kind: actTimer}
	bestD := never
	found := false
	for n := range s.timers {
		armed := s.armedTimers[n]
		for id := proto.TimerID(0); id < proto.NumTimers; id++ {
			if armed&(1<<id) != 0 && s.timers[n][id] < bestD {
				bestD = s.timers[n][id]
				best.node = can.NodeID(n)
				best.timer = id
				found = true
			}
		}
	}
	if found {
		s.apply(best)
		return true
	}
	if s.scen.HasCrash && !s.crashed && s.now <= s.scen.CrashBy {
		s.apply(action{kind: actCrash})
		return true
	}
	return false
}

// quiescent reports whether the run has converged into a steady state from
// which the settle phase provably cannot change the terminal verdict: the
// crash branch is no longer schedulable, the protocol description calls
// every surviving node quiescent in exactly the expected view, and every
// pending frame is an explicit life-sign.
//
// For the CANELy cores (the only description that ever says yes — see
// canely.quiescent for the per-node half) the only future actions in that
// state are ELS deliveries, FD scan firings that re-arm themselves, and
// membership cycles over empty sets — none of which touches a view. A
// node's life-sign is always delivered before the remote surveillance timer
// that would expire on it fires (frames precede timers in deterministic
// order, and the Ttd horizon holds every timer back until the queue
// drains), so no false suspicion can arise either. The terminal liveness
// check is therefore already decided, and the engine may skip the settle
// phase entirely. TestSettleShortcutSound pins this argument against the
// full settle run.
func (s *System) quiescent() bool {
	if s.scen.HasCrash && !s.crashed && s.now <= s.scen.CrashBy {
		return false
	}
	want := s.scen.want(s.crashed)
	for n, m := range s.nodes {
		if s.alive[n] && !s.desc.quiescent(m, want) {
			return false
		}
	}
	for i := s.head; i >= 0; i = s.entries[i].next {
		if s.entries[i].f.mid.Type != can.TypeELS {
			return false
		}
	}
	return true
}

// Snapshot returns an independent deep copy of the system: a checkpoint a
// branch can later resume from in O(1) instead of replaying the whole
// decision prefix from the root. The replay recorder is deliberately not
// carried over — counterexample capture always re-executes from the root so
// the log covers the complete run.
func (s *System) Snapshot() *System {
	c := &System{
		scen:        s.scen,
		desc:        s.desc,
		now:         s.now,
		crashed:     s.crashed,
		head:        s.head,
		tail:        s.tail,
		free:        s.free,
		liveFrames:  s.liveFrames,
		nodes:       make([]proto.Machine, len(s.nodes)),
		alive:       append([]bool(nil), s.alive...),
		entries:     append([]entry(nil), s.entries...),
		timers:      append([][proto.NumTimers]sim.Time(nil), s.timers...),
		armedTimers: append([]uint8(nil), s.armedTimers...),
	}
	for i, n := range s.nodes {
		c.nodes[i] = s.desc.clone(n)
	}
	return c
}

// Restore replaces s's state with a deep copy of src's, reusing s's
// storage throughout — the allocation-free path pooled systems resume
// through. Both systems must have been built for the same scenario. The
// replay recorder and scratch buffers keep s's own values.
func (s *System) Restore(src *System) {
	s.now = src.now
	s.crashed = src.crashed
	s.head, s.tail, s.free = src.head, src.tail, src.free
	s.liveFrames = src.liveFrames
	for i := range src.nodes {
		s.desc.restore(s.nodes[i], src.nodes[i])
	}
	copy(s.alive, src.alive)
	s.entries = append(s.entries[:0], src.entries...)
	copy(s.timers, src.timers)
	copy(s.armedTimers, src.armedTimers)
}

// checkSafety asserts the protocol's per-step invariant at every live node.
func (s *System) checkSafety() error {
	for n, m := range s.nodes {
		if !s.alive[n] {
			continue
		}
		if err := s.desc.checkSafety(can.NodeID(n), m); err != nil {
			return err
		}
	}
	return nil
}

// checkTerminal asserts liveness + agreement at the end of a schedule:
// every surviving node integrated and converged on exactly the alive set.
func (s *System) checkTerminal() error {
	want := s.scen.want(s.crashed)
	for n, m := range s.nodes {
		if !s.alive[n] {
			continue
		}
		if err := s.desc.checkTerminal(can.NodeID(n), m, want); err != nil {
			return err
		}
	}
	return nil
}
