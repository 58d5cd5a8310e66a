// Package bus simulates a single-channel CAN broadcast bus with the exact
// properties the CANELy protocol suite is designed against (paper §4):
//
//   - carrier sense with deterministic collision resolution: among all
//     pending transmit requests, the frame with the numerically lowest
//     identifier wins arbitration (MCAN property of the MAC sub-layer);
//   - wired-AND clustering: identical remote frames transmitted
//     simultaneously by several nodes merge into a single physical frame,
//     and every clustered sender obtains a transmit confirmation;
//   - broadcast with value-domain correctness: all correct nodes receiving
//     an uncorrupted frame receive the same frame (MCAN1);
//   - error detection and automatic retransmission: consistent corruptions
//     are observed by every node, signalled with an error frame and masked
//     by retransmission (MCAN2, LCAN1-3);
//   - inconsistent omissions: an error in the last two bits of a frame can
//     leave a subset of receivers without a frame the others accepted; the
//     sender retransmits (duplicates) unless it crashes first (inconsistent
//     message omission, LCAN4);
//   - fault confinement: transmit/receive error counters drive the
//     error-active / error-passive / bus-off controller states, enforcing
//     weak-fail-silence of defective nodes.
//
// Timing is bit-accurate under worst-case stuffing: each transmission
// occupies the bus for its frame length plus the interframe space, error
// recovery adds error-frame overhead, and all of it is accounted in Stats
// (total and per message type), from which the Figure 10 bandwidth
// measurements are taken.
package bus

import (
	"fmt"
	"time"

	"canely/internal/can"
	"canely/internal/fault"
	"canely/internal/sim"
	"canely/internal/trace"
)

// Handler receives controller indications. Implemented by the CAN standard
// layer (internal/canlayer).
type Handler interface {
	// OnFrame signals the successful reception of a frame (the .ind
	// service). own marks self-reception of the node's own transmission.
	OnFrame(f can.Frame, own bool)
	// OnConfirm signals the successful transmission of a frame (.cnf).
	OnConfirm(f can.Frame)
	// OnBusOff signals that fault confinement shut the controller down.
	OnBusOff()
}

// Config parameterizes a simulated bus.
type Config struct {
	// Rate is the signalling rate; defaults to 1 Mbit/s.
	Rate can.BitRate
	// Injector decides per-transmission faults; defaults to fault.None.
	Injector fault.Injector
	// Trace receives bus events; nil discards them.
	Trace *trace.Trace
}

// Bus is the simulated channel. Create one with New, attach Ports, then run
// the scheduler.
type Bus struct {
	sched *sim.Scheduler
	rate  can.BitRate
	inj   fault.Injector
	tr    *trace.Trace

	ports map[can.NodeID]*Port
	order []can.NodeID

	busy         bool
	arbScheduled bool
	current      *transmission

	stats Stats
}

// transmission is the frame currently on the wire.
type transmission struct {
	frame   can.Frame
	senders can.NodeSet
	attempt int
}

// New creates a bus on the given scheduler.
func New(sched *sim.Scheduler, cfg Config) *Bus {
	if sched == nil {
		panic("bus: nil scheduler")
	}
	if cfg.Rate == 0 {
		cfg.Rate = can.Rate1Mbps
	}
	if cfg.Injector == nil {
		cfg.Injector = fault.None{}
	}
	return &Bus{
		sched: sched,
		rate:  cfg.Rate,
		inj:   cfg.Injector,
		tr:    cfg.Trace,
		ports: make(map[can.NodeID]*Port),
	}
}

// Rate returns the configured bit rate.
func (b *Bus) Rate() can.BitRate { return b.rate }

// Scheduler returns the simulation scheduler the bus runs on.
func (b *Bus) Scheduler() *sim.Scheduler { return b.sched }

// Stats returns a snapshot of the accumulated bus statistics.
func (b *Bus) Stats() Stats { return b.stats }

// Attach connects a new controller to the bus. Attaching the same node id
// twice panics: node identity is a static configuration property.
func (b *Bus) Attach(id can.NodeID) *Port {
	if !id.Valid() {
		panic(fmt.Sprintf("bus: invalid node id %d", id))
	}
	if _, dup := b.ports[id]; dup {
		panic(fmt.Sprintf("bus: node %v attached twice", id))
	}
	p := &Port{bus: b, id: id, alive: true}
	b.ports[id] = p
	b.order = append(b.order, id)
	return p
}

// Port returns the attached port for a node id, or nil.
func (b *Bus) Port(id can.NodeID) *Port { return b.ports[id] }

// AliveSet returns the set of nodes whose controllers are operational
// (attached, not crashed, not bus-off).
func (b *Bus) AliveSet() can.NodeSet {
	var s can.NodeSet
	for _, id := range b.order {
		if p := b.ports[id]; p.operational() {
			s = s.Add(id)
		}
	}
	return s
}

// kick schedules an arbitration pass if the bus is idle and work is queued.
func (b *Bus) kick() {
	if b.busy || b.arbScheduled {
		return
	}
	for _, id := range b.order {
		if p := b.ports[id]; p.operational() && len(p.queue) > 0 {
			b.arbScheduled = true
			b.sched.At(b.sched.Now(), b.arbitrate)
			return
		}
	}
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
			b.sched.At(suspendedWork, b.kick)
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
		head := p.queue[0]
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
			panic(fmt.Sprintf("bus: identifier collision %#x between distinct frames", frame.ID))
		}
	}
	if senders.Empty() {
		panic("bus: arbitration winner has no sender")
	}

	b.busy = true
	b.current = &transmission{frame: frame, senders: senders, attempt: attempt}
	bits := can.FrameBits(frame)
	b.tr.Emit(trace.Event{Msg: trace.MsgTxStart, Node: -1, Frame: frame, Nodes: senders, N: attempt})
	b.sched.After(b.rate.DurationOf(bits), b.complete)
}

// complete finishes the transmission on the wire, applying any injected
// fault and dispatching indications/confirmations.
func (b *Bus) complete() {
	tx := b.current
	receivers := b.AliveSet().Diff(tx.senders)
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
		b.tr.Emit(trace.Event{Msg: trace.MsgTxErr, Node: -1, Frame: tx.frame, N: tx.attempt})
		b.bumpErrorCounters(tx.senders, receivers)
		// The frame plus the error frame plus intermission occupy the wire;
		// the request stays queued at every sender for retransmission.
		b.finish(can.ErrorFrameMaxBits + can.InterframeBits)

	case !decision.InconsistentVictims.Empty():
		victims := decision.InconsistentVictims.Intersect(receivers)
		accepted := receivers.Diff(victims)
		b.stats.RecordInconsistent(tx.frame, frameBits)
		b.tr.Emit(trace.Event{Msg: trace.MsgTxIncons, Node: -1, Frame: tx.frame, Nodes: victims, Crash: decision.CrashSenders})
		// Nodes past the last-but-one bit accept the frame; the victims
		// signal an error the senders observe, so the senders treat the
		// attempt as failed and keep the request queued.
		b.deliver(tx.frame, accepted, can.EmptySet)
		b.bumpErrorCounters(tx.senders, victims)
		if decision.CrashSenders {
			for _, id := range tx.senders.IDs() {
				b.ports[id].Crash()
			}
		}
		b.finish(can.ErrorFrameMaxBits + can.InterframeBits)

	default:
		b.stats.RecordSuccess(tx.frame, frameBits)
		b.tr.Emit(trace.Event{Msg: trace.MsgTxOK, Node: -1, Frame: tx.frame, Nodes: tx.senders})
		b.deliver(tx.frame, receivers, tx.senders)
		for _, id := range tx.senders.IDs() {
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
			for _, id := range tx.senders.IDs() {
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
	for _, id := range senders.IDs() {
		b.ports[id].onTxError()
	}
	for _, id := range victims.IDs() {
		b.ports[id].onRxError()
	}
}

// SuspendTransmissionBits is the extra idle penalty an error-passive node
// pays after transmitting (ISO 11898 §8.9). Exported for internal/fastbus.
const SuspendTransmissionBits = 8

// finish occupies the wire for the trailing overhead then frees the bus,
// applying the suspend-transmission penalty to error-passive senders.
func (b *Bus) finish(overheadBits int) {
	senders := can.EmptySet
	if b.current != nil {
		senders = b.current.senders
	}
	busFree := b.sched.Now().Add(b.rate.DurationOf(overheadBits))
	for _, id := range senders.IDs() {
		if p := b.ports[id]; p.state == ErrorPassive {
			p.suspendUntil = busFree.Add(b.rate.DurationOf(SuspendTransmissionBits))
		}
	}
	b.stats.RecordOverhead(overheadBits, b.rate)
	b.current = nil
	b.sched.At(busFree, func() {
		b.busy = false
		b.kick()
	})
}

// transmittingFrame reports whether the given identifier is on the wire now.
func (b *Bus) transmitting(id uint32) bool {
	return b.busy && b.current != nil && b.current.frame.ID == id
}

// Elapsed returns the bus time base for utilization computations.
func (b *Bus) Elapsed() time.Duration { return time.Duration(b.sched.Now()) }
