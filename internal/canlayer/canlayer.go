// Package canlayer implements the CAN standard layer interface of the paper
// (Figure 4): the transmit request primitives for data and remote frames
// (can-data.req, can-rtr.req), transmit confirmations (.cnf), arrival
// indications (.ind, own transmissions included), the abort service
// (can-abort.req) and — crucially for CANELy — the non-standard notification
// primitive can-data.nty, which signals the arrival of a data frame without
// delivering its payload. The notification primitive is what lets the node
// failure detector use ordinary application traffic as implicit heartbeats.
//
// A Layer multiplexes several protocol entities over one controller: each
// entity registers callbacks for the indications it consumes, mirroring the
// protocol stack of Figure 5.
package canlayer

import (
	"fmt"

	"canely/internal/bus"
	"canely/internal/can"
)

// Controller is the exposed CAN controller interface the layer drives. A
// bus.Port implements it directly; the media-redundancy layer
// (internal/redundancy) implements it over replicated ports, transparently
// to every protocol above.
type Controller interface {
	// ID returns the node identity of the controller.
	ID() can.NodeID
	// Request queues a frame for transmission.
	Request(f can.Frame) error
	// Abort cancels a pending transmit request for the identifier.
	Abort(id uint32) bool
	// PendingEquivalent reports whether a wire-equivalent transmit request
	// is already queued.
	PendingEquivalent(f can.Frame) bool
	// SetHandler installs the indication receiver.
	SetHandler(h bus.Handler)
}

// The canonical controller satisfies the interface.
var _ Controller = (*bus.Port)(nil)

// Layer adapts a Controller to the paper's service primitives.
type Layer struct {
	port Controller

	dataInd []func(mid can.MID, data []byte)
	rtrInd  []func(mid can.MID)
	dataNty []func(mid can.MID)
	dataCnf []func(mid can.MID)
	rtrCnf  []func(mid can.MID)
	busOff  []func()

	// rx is the payload storage data indications hand to consumers:
	// slicing the indicated frame instead would move it to the heap on
	// every indication.
	rx [can.MaxData]byte
}

// New wraps a controller. The layer installs itself as its handler.
func New(ctrl Controller) *Layer {
	if ctrl == nil {
		panic("canlayer: nil controller")
	}
	l := &Layer{port: ctrl}
	ctrl.SetHandler((*handler)(l))
	return l
}

// NodeID returns the local node identity.
func (l *Layer) NodeID() can.NodeID { return l.port.ID() }

// DataReq requests transmission of a data frame (can-data.req). Only one
// node may transmit a given data mid at a time; the mid codec guarantees it
// by embedding the source.
func (l *Layer) DataReq(mid can.MID, data []byte) error {
	if err := mid.Validate(); err != nil {
		return err
	}
	if mid.Src != l.port.ID() && mid.Type != can.TypeRHA {
		return fmt.Errorf("canlayer: data mid %v does not name local node %v", mid, l.port.ID())
	}
	var f can.Frame
	f.ID = mid.Encode()
	f.SetPayload(data)
	return l.port.Request(f)
}

// RTRReq requests transmission of a remote frame (can-rtr.req). Several
// nodes may simultaneously request the same remote frame; the bus clusters
// them into one physical frame.
func (l *Layer) RTRReq(mid can.MID) error {
	if err := mid.Validate(); err != nil {
		return err
	}
	return l.port.Request(can.Frame{ID: mid.Encode(), RTR: true})
}

// PendingEquivalentRTR reports whether an equivalent remote-frame transmit
// request is already queued locally — the guard FDA's recipients apply
// before requesting a failure-sign retransmission.
func (l *Layer) PendingEquivalentRTR(mid can.MID) bool {
	return l.port.PendingEquivalent(can.Frame{ID: mid.Encode(), RTR: true})
}

// AbortReq cancels a pending transmit request (can-abort.req). It has
// effect only on pending requests and reports whether one was removed.
func (l *Layer) AbortReq(mid can.MID) bool {
	return l.port.Abort(mid.Encode())
}

// HandleDataInd registers a can-data.ind consumer (message arrival with
// payload, own transmissions included). The payload slice is layer-owned
// storage, valid only until the consumer returns: a consumer that keeps
// the data must copy it.
func (l *Layer) HandleDataInd(fn func(mid can.MID, data []byte)) {
	l.dataInd = append(l.dataInd, fn)
}

// HandleRTRInd registers a can-rtr.ind consumer (remote frame arrival, own
// transmissions included).
func (l *Layer) HandleRTRInd(fn func(mid can.MID)) {
	l.rtrInd = append(l.rtrInd, fn)
}

// HandleDataNty registers a can-data.nty consumer: the arrival of any data
// frame, own transmissions included, without the message data. This is the
// paper's extension to the standard interface.
func (l *Layer) HandleDataNty(fn func(mid can.MID)) {
	l.dataNty = append(l.dataNty, fn)
}

// HandleDataCnf registers a can-data.cnf consumer.
func (l *Layer) HandleDataCnf(fn func(mid can.MID)) {
	l.dataCnf = append(l.dataCnf, fn)
}

// HandleRTRCnf registers a can-rtr.cnf consumer.
func (l *Layer) HandleRTRCnf(fn func(mid can.MID)) {
	l.rtrCnf = append(l.rtrCnf, fn)
}

// HandleBusOff registers a fault-confinement shutdown consumer.
func (l *Layer) HandleBusOff(fn func()) {
	l.busOff = append(l.busOff, fn)
}

// handler adapts Layer to bus.Handler without exporting the bus-facing
// methods on Layer itself.
type handler Layer

var _ bus.Handler = (*handler)(nil)

func (h *handler) OnFrame(f can.Frame, own bool) {
	mid, err := can.DecodeMID(f.ID)
	if err != nil {
		// Frames outside the CANELy identifier plan are invisible to the
		// protocol suite (acceptance filtering).
		return
	}
	l := (*Layer)(h)
	if f.RTR {
		for _, fn := range l.rtrInd {
			fn(mid)
		}
		return
	}
	for _, fn := range l.dataNty {
		fn(mid)
	}
	l.rx = f.Data
	data := l.rx[:f.DLC]
	for _, fn := range l.dataInd {
		fn(mid, data)
	}
}

func (h *handler) OnConfirm(f can.Frame) {
	mid, err := can.DecodeMID(f.ID)
	if err != nil {
		return
	}
	l := (*Layer)(h)
	if f.RTR {
		for _, fn := range l.rtrCnf {
			fn(mid)
		}
		return
	}
	for _, fn := range l.dataCnf {
		fn(mid)
	}
}

func (h *handler) OnBusOff() {
	for _, fn := range (*Layer)(h).busOff {
		fn()
	}
}
