package bus

import (
	"errors"
	"fmt"
	"sort"

	"canely/internal/can"
	"canely/internal/sim"
	"canely/internal/trace"
)

// ControllerState is the CAN fault-confinement state of a controller.
type ControllerState int

// Fault-confinement states (ISO 11898 §8).
const (
	// ErrorActive controllers participate fully and signal errors with
	// active (dominant) error flags.
	ErrorActive ControllerState = iota
	// ErrorPassive controllers may still communicate but signal errors
	// passively and wait a suspend-transmission penalty.
	ErrorPassive
	// BusOff controllers are disconnected from bus traffic: the hardware
	// realization of the weak-fail-silent assumption (paper §4).
	BusOff
)

// String names the state.
func (s ControllerState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	default:
		return "bus-off"
	}
}

// Fault-confinement thresholds (ISO 11898 §8): counter deltas and the state
// boundaries. Exported so the frame-level substrate (internal/fastbus) runs
// the exact same confinement arithmetic.
const (
	TECOnError     = 8
	RECOnError     = 1
	PassiveLimit   = 128
	BusOffLimit    = 256
	MaxRECAfterFix = 120 // REC clamp after recovery, per the standard
)

// txReq is a queued transmit request.
type txReq struct {
	frame    can.Frame
	attempts int
}

// Port is a CAN controller attached to the bus: a priority-ordered transmit
// queue, a receive path with self-reception, abort support, and the TEC/REC
// fault-confinement machinery.
type Port struct {
	bus     *Bus
	id      can.NodeID
	handler Handler
	queue   []*txReq

	alive bool
	tec   int
	rec   int
	state ControllerState

	// suspendUntil implements the error-passive suspend-transmission rule
	// (ISO 11898 §8.9): after transmitting, an error-passive node must
	// wait eight extra bit times before competing for the bus again,
	// restoring fairness toward error-active nodes.
	suspendUntil sim.Time

	// Counters exposed for tests and experiment reports.
	txOK int
	rxOK int
}

// ID returns the node identity of this controller.
func (p *Port) ID() can.NodeID { return p.id }

// SetHandler installs the indication receiver. Must be called before the
// simulation delivers traffic to this node.
func (p *Port) SetHandler(h Handler) { p.handler = h }

// State returns the fault-confinement state.
func (p *Port) State() ControllerState { return p.state }

// Counters returns (TEC, REC).
func (p *Port) Counters() (tec, rec int) { return p.tec, p.rec }

// Alive reports whether the node has not crashed. A bus-off controller on a
// live node reports true here but false from Operational.
func (p *Port) Alive() bool { return p.alive }

// Operational reports whether the controller exchanges traffic: alive and
// not bus-off.
func (p *Port) Operational() bool { return p.operational() }

func (p *Port) operational() bool { return p.alive && p.state != BusOff }

// TxSuccesses returns the number of successfully transmitted frames.
func (p *Port) TxSuccesses() int { return p.txOK }

// RxSuccesses returns the number of successfully received frames.
func (p *Port) RxSuccesses() int { return p.rxOK }

// ErrRequestRejected reports a transmit request on a dead or bus-off
// controller.
var ErrRequestRejected = errors.New("bus: controller not operational")

// Request queues a frame for transmission. A pending request with the same
// identifier is replaced (mailbox semantics of real CAN controllers); a
// frame currently being transmitted is not affected. The queue is kept in
// identifier order so the head is always the local arbitration candidate.
func (p *Port) Request(f can.Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if !p.operational() {
		return ErrRequestRejected
	}
	replaced := false
	for _, r := range p.queue {
		if r.frame.ID == f.ID && r.frame.RTR == f.RTR {
			r.frame = f
			r.attempts = 0
			replaced = true
			break
		}
	}
	if !replaced {
		p.queue = append(p.queue, &txReq{frame: f})
		sort.SliceStable(p.queue, func(i, j int) bool {
			return p.queue[i].frame.ID < p.queue[j].frame.ID
		})
	}
	p.bus.kick()
	return nil
}

// PendingEquivalent reports whether a transmit request indistinguishable on
// the wire from f is queued — FDA recipients use this to honour the paper's
// "in the absence of an equivalent transmit request" guard.
func (p *Port) PendingEquivalent(f can.Frame) bool {
	for _, r := range p.queue {
		if r.frame.SameWire(f) {
			return true
		}
	}
	return false
}

// Pending reports whether a request with the identifier is queued.
func (p *Port) Pending(id uint32) bool {
	for _, r := range p.queue {
		if r.frame.ID == id {
			return true
		}
	}
	return false
}

// QueueLen returns the number of queued transmit requests.
func (p *Port) QueueLen() int { return len(p.queue) }

// Abort cancels a pending transmit request (the can-abort.req service). Per
// the paper it "has effect only on pending requests": a frame already on
// the wire is not recalled. It reports whether a request was removed.
func (p *Port) Abort(id uint32) bool {
	if p.bus.transmitting(id) && p.bus.current.senders.Contains(p.id) {
		return false
	}
	for i, r := range p.queue {
		if r.frame.ID == id {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Crash fail-silences the node: the controller stops transmitting and
// receiving immediately and its queue is discarded.
func (p *Port) Crash() {
	if !p.alive {
		return
	}
	p.alive = false
	p.queue = nil
	p.bus.tr.Emit(trace.Event{Msg: trace.MsgNodeCrashed, Node: int(p.id)})
}

// dequeue removes the queued request matching a completed frame.
func (p *Port) dequeue(f can.Frame) {
	for i, r := range p.queue {
		if r.frame.ID == f.ID && r.frame.RTR == f.RTR {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("bus: %v confirmed a frame it never queued: %v", p.id, f))
}

// Fault-confinement transitions.

func (p *Port) onTxSuccess() {
	p.txOK++
	if p.tec > 0 {
		p.tec--
	}
	p.refreshState()
}

func (p *Port) onRxSuccess() {
	p.rxOK++
	if p.rec > 0 {
		if p.rec > PassiveLimit {
			p.rec = MaxRECAfterFix
		} else {
			p.rec--
		}
	}
	p.refreshState()
}

func (p *Port) onTxError() {
	p.tec += TECOnError
	p.refreshState()
}

func (p *Port) onRxError() {
	p.rec += RECOnError
	p.refreshState()
}

func (p *Port) refreshState() {
	switch {
	case p.tec >= BusOffLimit:
		if p.state != BusOff {
			p.state = BusOff
			p.queue = nil
			p.bus.tr.Emit(trace.Event{Msg: trace.MsgBusOff, Node: int(p.id), N: p.tec})
			if p.handler != nil {
				p.handler.OnBusOff()
			}
		}
	case p.tec >= PassiveLimit || p.rec >= PassiveLimit:
		p.state = ErrorPassive
	default:
		p.state = ErrorActive
	}
}
