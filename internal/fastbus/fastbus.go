// Package fastbus is the frame-level CAN substrate: the exact MAC/LLC
// semantics of the bit-accurate internal/bus simulator — lowest-identifier
// arbitration, wired-AND clustering of identical remote frames, exact frame
// durations from the can.Timing worst-case stuffing math, end-of-frame
// inconsistent-omission injection, TEC/REC fault confinement with the
// error-passive suspend-transmission penalty — resolved analytically per
// physical frame, with none of the diagnostic machinery.
//
// Where internal/bus keeps a structured trace and map-indexed ports, fastbus
// keeps dense arrays and zero per-frame allocations on the success path;
// both record into the same bus.Stats accumulator. A seeded simulation
// delivers the same frame sequence, drives the same fault-injector decision
// stream and reaches the same controller and membership states on either
// substrate (asserted by the equivalence suite in the root package); fastbus
// is simply an order of magnitude cheaper per run, which is what Monte-Carlo
// campaigns care about.
//
// The deliberate differences: no trace (diagnose on internal/bus), and the
// per-frame overload / error overhead arithmetic is shared via the exported
// internal/bus constants rather than duplicated.
package fastbus

import (
	"fmt"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/fault"
	"canely/internal/sim"
)

// Config parameterizes a fastbus medium.
type Config struct {
	// Rate is the signalling rate; defaults to 1 Mbit/s.
	Rate can.BitRate
	// Injector decides per-transmission faults; defaults to fault.None.
	Injector fault.Injector
}

// Bus is the frame-level channel. Create one with New, attach Ports, then
// run the scheduler.
type Bus struct {
	sched *sim.Scheduler
	rate  can.BitRate
	inj   fault.Injector

	// ports is indexed by node id; order preserves attach order for the
	// deterministic delivery sweep.
	ports [can.MaxNodes]*Port
	order []can.NodeID
	// alive caches the operational set; crash and bus-off are one-way
	// transitions, so incremental removal is exact.
	alive can.NodeSet

	// busy is true while a frame is on the wire (the complete event is
	// pending); the trailing overhead after complete is tracked analytically
	// by busyUntil instead of occupying an event of its own.
	busy         bool
	busyUntil    sim.Time
	arbScheduled bool
	current      transmission
	onWire       bool // current is valid

	// kickEv is the pending re-arbitration alarm, if any: the single event
	// that steps over a wire-occupancy gap (frame tail or error-passive
	// suspension) when — and only when — transmit work is actually queued.
	// An idle gap with no queued work costs no event at all: the bus state
	// advances analytically when the next request arrives (see kick).
	kickEv sim.Event

	// Pre-bound event callbacks: scheduling a method value allocates, so
	// the per-frame events reuse these.
	arbitrateFn func()
	completeFn  func()
	kickFn      func()

	// observer, when non-nil, sees every physically delivered frame once
	// (after MAC resolution, before per-port dispatch) — the bus-tap hook
	// live brokers and traffic analyzers attach to.
	observer func(f can.Frame)

	stats bus.Stats
	// Batched-vs-stepped idle-gap advances (see Advances).
	advBatched, advStepped uint64
}

// transmission is the frame currently on the wire.
type transmission struct {
	frame   can.Frame
	senders can.NodeSet
	attempt int
}

// New creates a fastbus on the given scheduler.
func New(sched *sim.Scheduler, cfg Config) *Bus {
	if sched == nil {
		panic("fastbus: nil scheduler")
	}
	if cfg.Rate == 0 {
		cfg.Rate = can.Rate1Mbps
	}
	if cfg.Injector == nil {
		cfg.Injector = fault.None{}
	}
	b := &Bus{sched: sched, rate: cfg.Rate, inj: cfg.Injector}
	b.arbitrateFn = b.arbitrate
	b.completeFn = b.complete
	b.kickFn = func() {
		b.kickEv = sim.Event{}
		b.kick()
	}
	return b
}

// Rate returns the configured bit rate.
func (b *Bus) Rate() can.BitRate { return b.rate }

// Scheduler returns the simulation scheduler the bus runs on.
func (b *Bus) Scheduler() *sim.Scheduler { return b.sched }

// Stats returns a snapshot of the accumulated wire statistics.
func (b *Bus) Stats() bus.Stats { return b.stats }

// Advances reports how the bus stepped over post-frame wire-occupancy gaps:
// batched gaps were skipped analytically (no scheduler event — the next
// request re-arbitrates directly), stepped gaps needed one alarm at the
// gap's end because transmit work was already waiting.
func (b *Bus) Advances() (batched, stepped uint64) {
	return b.advBatched, b.advStepped
}

// SetObserver installs a bus-level tap that sees every physically delivered
// frame once, before per-port dispatch. Pass nil to detach.
func (b *Bus) SetObserver(fn func(f can.Frame)) { b.observer = fn }

// Elapsed returns the bus time base for utilization computations.
func (b *Bus) Elapsed() time.Duration { return time.Duration(b.sched.Now()) }

// Attach connects a new controller to the bus. Attaching the same node id
// twice panics: node identity is a static configuration property.
func (b *Bus) Attach(id can.NodeID) *Port {
	if !id.Valid() {
		panic(fmt.Sprintf("fastbus: invalid node id %d", id))
	}
	if b.ports[id] != nil {
		panic(fmt.Sprintf("fastbus: node %v attached twice", id))
	}
	p := &Port{bus: b, id: id, alive: true}
	b.ports[id] = p
	b.order = append(b.order, id)
	b.alive = b.alive.Add(id)
	return p
}

// Port returns the attached port for a node id, or nil.
func (b *Bus) Port(id can.NodeID) *Port {
	if !id.Valid() {
		return nil
	}
	return b.ports[id]
}

// AliveSet returns the set of nodes whose controllers are operational
// (attached, not crashed, not bus-off).
func (b *Bus) AliveSet() can.NodeSet { return b.alive }

// drop removes a node from the cached operational set (crash or bus-off).
func (b *Bus) drop(id can.NodeID) { b.alive = b.alive.Remove(id) }

// kick schedules an arbitration pass if the bus is free and work is queued.
// Arbitration runs as its own event at the current instant so that every
// same-instant transmit request joins it — that is what clusters identical
// remote frames requested simultaneously into one physical frame. While the
// trailing overhead of the previous frame still occupies the wire, kick
// steps once to the end of that gap (scheduleKick) instead of relying on a
// per-frame unlock event.
func (b *Bus) kick() {
	if b.busy || b.arbScheduled {
		return
	}
	if !b.haveWork() {
		return
	}
	if now := b.sched.Now(); now < b.busyUntil {
		b.scheduleKick(b.busyUntil)
		return
	}
	b.arbScheduled = true
	b.sched.At(b.sched.Now(), b.arbitrateFn)
}

// haveWork reports whether any operational port has a queued request.
func (b *Bus) haveWork() bool {
	for _, id := range b.order {
		if p := b.ports[id]; p.operational() && len(p.queue) > 0 {
			return true
		}
	}
	return false
}

// scheduleKick arranges for kick to run at instant t — the next instant the
// wire could be re-arbitrated — unless a kick at or before t is already
// pending. Chasing the minimum keeps at most one alarm live regardless of
// how many gaps (frame tails, suspensions) overlap.
func (b *Bus) scheduleKick(t sim.Time) {
	if b.kickEv.Pending() && b.kickEv.When() <= t {
		return
	}
	b.kickEv.Cancel()
	b.kickEv = b.sched.At(t, b.kickFn)
}

// arbitrate resolves the next transmission: the lowest pending identifier
// wins; identical remote frames from several nodes cluster into one
// physical frame.
func (b *Bus) arbitrate() {
	b.arbScheduled = false
	if b.busy {
		return
	}
	now := b.sched.Now()
	var winner *can.Frame
	suspendedWork := sim.Never
	for _, id := range b.order {
		p := b.ports[id]
		if !p.operational() || len(p.queue) == 0 {
			continue
		}
		if p.suspendUntil > now {
			// Error-passive suspend transmission: this node sits out this
			// arbitration; remember to retry when its penalty elapses.
			if p.suspendUntil < suspendedWork {
				suspendedWork = p.suspendUntil
			}
			continue
		}
		head := &p.queue[0].frame
		if winner == nil || head.ID < winner.ID {
			winner = head
		}
	}
	if winner == nil {
		if suspendedWork != sim.Never {
			// Step directly to the earliest suspend expiry; a request from a
			// non-suspended node arriving earlier re-arbitrates immediately.
			b.scheduleKick(suspendedWork)
		}
		return
	}
	frame := *winner
	var senders can.NodeSet
	attempt := 0
	for _, id := range b.order {
		p := b.ports[id]
		if !p.operational() || len(p.queue) == 0 || p.suspendUntil > now {
			continue
		}
		head := &p.queue[0]
		switch {
		case head.frame == frame || head.frame.SameWire(frame):
			senders = senders.Add(id)
			head.attempts++
			if head.attempts > attempt {
				attempt = head.attempts
			}
		case head.frame.ID == frame.ID:
			// Two distinct frames with one identifier would corrupt each
			// other on a real bus; the CANELy mid scheme statically
			// prevents it, so reaching here is a protocol bug.
			panic(fmt.Sprintf("fastbus: identifier collision %#x between distinct frames", frame.ID))
		}
	}
	if senders.Empty() {
		panic("fastbus: arbitration winner has no sender")
	}

	b.busy = true
	b.current = transmission{frame: frame, senders: senders, attempt: attempt}
	b.onWire = true
	b.sched.After(b.rate.DurationOf(can.FrameBits(frame)), b.completeFn)
}

// complete finishes the transmission on the wire, applying any injected
// fault and dispatching indications/confirmations.
func (b *Bus) complete() {
	tx := &b.current
	receivers := b.alive.Diff(tx.senders)
	decision := b.inj.Decide(fault.TxContext{
		Now:       b.sched.Now(),
		Frame:     tx.frame,
		Senders:   tx.senders,
		Receivers: receivers,
		Attempt:   tx.attempt,
	})

	frameBits := can.FrameBits(tx.frame)
	switch {
	case decision.Corrupt:
		b.stats.RecordError(tx.frame, frameBits, b.rate)
		b.bumpErrorCounters(tx.senders, receivers)
		// The frame plus the error frame plus intermission occupy the wire;
		// the request stays queued at every sender for retransmission.
		b.finish(can.ErrorFrameMaxBits + can.InterframeBits)

	case !decision.InconsistentVictims.Empty():
		victims := decision.InconsistentVictims.Intersect(receivers)
		accepted := receivers.Diff(victims)
		b.stats.RecordInconsistent(tx.frame, frameBits)
		// Nodes past the last-but-one bit accept the frame; the victims
		// signal an error the senders observe, so the senders treat the
		// attempt as failed and keep the request queued.
		b.deliver(tx.frame, accepted, can.EmptySet)
		b.bumpErrorCounters(tx.senders, victims)
		if decision.CrashSenders {
			for s := tx.senders; !s.Empty(); {
				id := s.Lowest()
				s = s.Remove(id)
				b.ports[id].Crash()
			}
		}
		b.finish(can.ErrorFrameMaxBits + can.InterframeBits)

	default:
		b.stats.RecordSuccess(tx.frame, frameBits)
		b.deliver(tx.frame, receivers, tx.senders)
		for s := tx.senders; !s.Empty(); {
			id := s.Lowest()
			s = s.Remove(id)
			p := b.ports[id]
			if !p.operational() {
				// The sender crashed (or went bus-off) while its frame was
				// on the wire: the frame still completed, but there is no
				// queue entry left and nobody to confirm to.
				continue
			}
			p.dequeue(tx.frame)
			p.onTxSuccess()
			if p.handler != nil {
				p.handler.OnConfirm(tx.frame)
			}
		}
		if decision.CrashSenders {
			for s := tx.senders; !s.Empty(); {
				id := s.Lowest()
				s = s.Remove(id)
				b.ports[id].Crash()
			}
		}
		overhead := can.InterframeBits
		if n := decision.OverloadFrames; n > 0 {
			// ISO 11898 bounds reactive overload frames to two in a row.
			if n > 2 {
				n = 2
			}
			overhead += n * can.OverloadFrameMaxBits
		}
		b.finish(overhead)
	}
}

// deliver dispatches a frame indication to receivers and self-reception to
// senders, in deterministic node order.
func (b *Bus) deliver(f can.Frame, receivers, senders can.NodeSet) {
	if b.observer != nil {
		b.observer(f)
	}
	for _, id := range b.order {
		p := b.ports[id]
		if !p.operational() || p.handler == nil {
			continue
		}
		switch {
		case receivers.Contains(id):
			p.onRxSuccess()
			p.handler.OnFrame(f, false)
		case senders.Contains(id):
			p.handler.OnFrame(f, true)
		}
	}
}

// bumpErrorCounters applies the fault-confinement counter rules after a
// failed transmission.
func (b *Bus) bumpErrorCounters(senders, victims can.NodeSet) {
	for s := senders; !s.Empty(); {
		id := s.Lowest()
		s = s.Remove(id)
		b.ports[id].onTxError()
	}
	for s := victims; !s.Empty(); {
		id := s.Lowest()
		s = s.Remove(id)
		b.ports[id].onRxError()
	}
}

// finish accounts the trailing overhead analytically: instead of occupying
// an unconditional per-frame unlock event, the gap's end is recorded in
// busyUntil and an alarm is scheduled only when transmit work is already
// waiting for it (a stepped advance); otherwise the gap costs nothing (a
// batched advance). It also applies the suspend-transmission penalty to
// error-passive senders.
func (b *Bus) finish(overheadBits int) {
	senders := can.EmptySet
	if b.onWire {
		senders = b.current.senders
	}
	busFree := b.sched.Now().Add(b.rate.DurationOf(overheadBits))
	for s := senders; !s.Empty(); {
		id := s.Lowest()
		s = s.Remove(id)
		if p := b.ports[id]; p.state == bus.ErrorPassive {
			p.suspendUntil = busFree.Add(b.rate.DurationOf(bus.SuspendTransmissionBits))
		}
	}
	b.stats.RecordOverhead(overheadBits, b.rate)
	b.onWire = false
	b.busy = false
	b.busyUntil = busFree
	b.kick()
	if b.kickEv.Pending() {
		b.advStepped++
	} else {
		b.advBatched++
	}
}

// transmitting reports whether the given identifier is on the wire now.
func (b *Bus) transmitting(id uint32) bool {
	return b.busy && b.onWire && b.current.frame.ID == id
}
