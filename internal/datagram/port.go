package datagram

import (
	"canely/internal/bus"
	"canely/internal/can"
)

// Port is one node's network interface: CAN-shaped local semantics
// (mailbox transmit requests, completion confirms, own-frame loopback)
// over a lossy point-to-point network. There is no fault confinement —
// the interface never error-signals, so TEC/REC stay zero and the state
// is permanently error-active until a crash.
type Port struct {
	net     *Net
	id      can.NodeID
	handler bus.Handler

	// current is the frame being serialized; queue holds the waiting
	// requests in FIFO order (no arbitration, so no identifier order).
	current   can.Frame
	serializg bool
	queue     []can.Frame
	// completeFn is the pre-bound p.complete: a method value built per
	// frame would allocate.
	completeFn func()

	alive bool
	txOK  int
	rxOK  int
}

// ID returns the node identity of this interface.
func (p *Port) ID() can.NodeID { return p.id }

// SetHandler installs the indication receiver.
func (p *Port) SetHandler(h bus.Handler) { p.handler = h }

// Alive reports whether the node has not crashed.
func (p *Port) Alive() bool { return p.alive }

// Operational reports whether the interface exchanges traffic. There is
// no bus-off on a point-to-point network, so this equals Alive.
func (p *Port) Operational() bool { return p.alive }

// State returns the fault-confinement state: always error-active (the
// interface has no error counters to escalate).
func (p *Port) State() bus.ControllerState { return bus.ErrorActive }

// Counters returns (TEC, REC): always zero.
func (p *Port) Counters() (tec, rec int) { return 0, 0 }

// TxSuccesses returns the number of serialized (confirmed) frames.
func (p *Port) TxSuccesses() int { return p.txOK }

// RxSuccesses returns the number of delivered frames.
func (p *Port) RxSuccesses() int { return p.rxOK }

// Request queues a frame for transmission with mailbox semantics: a
// waiting request with the same identifier and kind is replaced in place;
// the frame being serialized is already on the wire and is not affected.
func (p *Port) Request(f can.Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if !p.alive {
		return bus.ErrRequestRejected
	}
	for i := range p.queue {
		if p.queue[i].ID == f.ID && p.queue[i].RTR == f.RTR {
			p.queue[i] = f
			return nil
		}
	}
	p.queue = append(p.queue, f)
	if !p.serializg {
		p.startNext()
	}
	return nil
}

// startNext begins serializing the head of the queue. The rest shifts down
// in place, so the backing array is reused by later requests.
func (p *Port) startNext() {
	p.current = p.queue[0]
	p.queue = p.queue[:copy(p.queue, p.queue[1:])]
	p.serializg = true
	dur := p.net.rate.DurationOf(can.FrameBits(p.current))
	p.net.sched.After(dur, p.completeFn)
}

// complete finishes the serialization of p.current: confirm the sender,
// loop the frame back (own indication), hand it to the network, continue
// with the next queued request.
func (p *Port) complete() {
	if !p.alive {
		return // crashed mid-serialization: the frame never left
	}
	f := p.current
	p.serializg = false
	p.txOK++
	if p.handler != nil {
		p.handler.OnConfirm(f)
		p.handler.OnFrame(f, true)
	}
	p.net.transmit(p.id, f)
	if len(p.queue) > 0 && p.alive {
		p.startNext()
	}
}

// Pending reports whether a request with the identifier is queued or being
// serialized.
func (p *Port) Pending(id uint32) bool {
	if p.serializg && p.current.ID == id {
		return true
	}
	for i := range p.queue {
		if p.queue[i].ID == id {
			return true
		}
	}
	return false
}

// PendingEquivalent reports whether a transmit request indistinguishable
// on the wire from f is queued or being serialized.
func (p *Port) PendingEquivalent(f can.Frame) bool {
	if p.serializg && p.current.SameWire(f) {
		return true
	}
	for i := range p.queue {
		if p.queue[i].SameWire(f) {
			return true
		}
	}
	return false
}

// Abort cancels a waiting transmit request; the frame being serialized is
// not recalled.
func (p *Port) Abort(id uint32) bool {
	for i := range p.queue {
		if p.queue[i].ID == id {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Crash fail-silences the node: transmit and receive stop immediately and
// the queue is discarded. Copies already in flight toward other nodes
// still arrive (a datagram cannot be recalled). Idempotent: crashing a
// crashed port is a no-op.
func (p *Port) Crash() {
	if !p.alive {
		return
	}
	p.alive = false
	p.serializg = false
	p.queue = nil
	p.net.alive = p.net.alive.Remove(p.id)
}

// QueueLen returns the number of waiting transmit requests (the frame
// being serialized excluded).
func (p *Port) QueueLen() int { return len(p.queue) }
