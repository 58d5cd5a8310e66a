// Package redundancy implements the CANELy media redundancy scheme of [17]
// ("A Columbus' egg idea for CAN media redundancy", FTCS-29) — the
// mechanism behind the "media redundancy: yes" row of the paper's
// Figure 11 and the footnote-4 assumption that medium partitions do not
// partition the *network*.
//
// The egg: replicate the transmission medium and drive every replica
// simultaneously from the same CAN controller. No protocol coordinates the
// replicas — each receiver merely *selects* among its per-medium receive
// lines, and a local media-selection unit masks a medium once it fails to
// carry what its sibling carries. Because every frame travels on every
// medium, masking is purely local: a partition, a stuck-at fault or a
// babbling segment on one medium is transparent as long as one replica
// still connects the nodes.
//
// DualPort is that selection unit at the controller interface, over two
// simulated media. Its tests inject each single-medium fault class — cut,
// stuck-dominant, stuck-recessive — on real buses and check the property
// the paper relies on: no single-medium fault partitions a dual-media
// network.
package redundancy

import (
	"fmt"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/canlayer"
	"canely/internal/sim"
)

// DualPort realizes the Columbus' egg at the controller interface: one
// logical CAN controller driving two replicated media (two bus instances
// on the same scheduler). Transmissions go out on both media; reception is
// by selection — indications pass through from the currently active medium
// and the standby is monitored. When the standby delivers a frame the
// active medium fails to match within the grace window, the selection unit
// fails over, so a partition, jam or dead driver on one medium never
// partitions the node.
//
// During a failover a frame may be delivered twice (once per medium);
// duplicates are within CAN's LLC contract (LCAN3, at-least-once) and every
// CANELy protocol absorbs them by design — the paper's duplicate counters
// exist for exactly this class of event.
//
// DualPort implements canlayer.Controller, so the entire protocol stack
// runs over it unchanged.
type DualPort struct {
	sched *sim.Scheduler
	ports [2]Port

	handler bus.Handler
	active  int

	// recent remembers deliveries per medium for matching, keyed by frame
	// identity; values are the virtual delivery instants.
	recent [2]map[frameKey][]sim.Time
	// waiting tracks standby frames pending an active match.
	waiting map[frameKey]sim.Event

	// Failovers counts medium switches (diagnostics).
	Failovers int
}

// frameKey identifies a frame on the wire for cross-media matching.
type frameKey struct {
	id   uint32
	rtr  bool
	data [can.MaxData]byte
	dlc  uint8
	cnf  bool // confirmation events are matched separately
}

func keyOf(f can.Frame, cnf bool) frameKey {
	return frameKey{id: f.ID, rtr: f.RTR, data: f.Data, dlc: f.DLC, cnf: cnf}
}

// Port is the single-medium controller surface a DualPort replicates over:
// the exposed controller interface plus the liveness the selection unit
// monitors. Satisfied by *bus.Port and by the fastbus substrate's ports.
type Port interface {
	canlayer.Controller
	Crash()
	Operational() bool
}

var _ Port = (*bus.Port)(nil)

// grace is how long a standby delivery waits for the active medium to
// match before triggering failover: one worst-case frame.
const grace = 200 * time.Microsecond

// NewDualPort attaches the node to both media. The two ports must carry
// the same node identity.
func NewDualPort(sched *sim.Scheduler, a, b Port) *DualPort {
	if a.ID() != b.ID() {
		panic(fmt.Sprintf("redundancy: port identities differ: %v vs %v", a.ID(), b.ID()))
	}
	d := &DualPort{
		sched:   sched,
		ports:   [2]Port{a, b},
		waiting: make(map[frameKey]sim.Event),
	}
	d.recent[0] = make(map[frameKey][]sim.Time)
	d.recent[1] = make(map[frameKey][]sim.Time)
	a.SetHandler(&mediumTap{d: d, medium: 0})
	b.SetHandler(&mediumTap{d: d, medium: 1})
	return d
}

// Active returns the index of the active medium (0 or 1).
func (d *DualPort) Active() int { return d.active }

// canlayer.Controller implementation.

// ID returns the node identity.
func (d *DualPort) ID() can.NodeID { return d.ports[0].ID() }

// SetHandler installs the logical indication receiver.
func (d *DualPort) SetHandler(h bus.Handler) { d.handler = h }

// Request queues the frame on both media. It succeeds if at least one
// medium accepted it.
func (d *DualPort) Request(f can.Frame) error {
	err0 := d.ports[0].Request(f)
	err1 := d.ports[1].Request(f)
	if err0 != nil && err1 != nil {
		return err0
	}
	return nil
}

// Abort cancels the pending request on both media.
func (d *DualPort) Abort(id uint32) bool {
	a := d.ports[0].Abort(id)
	b := d.ports[1].Abort(id)
	return a || b
}

// PendingEquivalent probes both media.
func (d *DualPort) PendingEquivalent(f can.Frame) bool {
	return d.ports[0].PendingEquivalent(f) || d.ports[1].PendingEquivalent(f)
}

// Crash fail-silences the node on both media.
func (d *DualPort) Crash() {
	d.ports[0].Crash()
	d.ports[1].Crash()
}

// Operational reports whether the node can still exchange traffic on at
// least one medium.
func (d *DualPort) Operational() bool {
	return d.ports[0].Operational() || d.ports[1].Operational()
}

var _ canlayer.Controller = (*DualPort)(nil)

// mediumTap receives one medium's indications.
type mediumTap struct {
	d      *DualPort
	medium int
}

func (t *mediumTap) OnFrame(f can.Frame, own bool) { t.d.onEvent(t.medium, f, own, false) }
func (t *mediumTap) OnConfirm(f can.Frame)         { t.d.onEvent(t.medium, f, false, true) }

// OnBusOff on the active medium triggers failover; on both, it propagates.
func (t *mediumTap) OnBusOff() {
	d := t.d
	other := 1 - t.medium
	if t.medium == d.active && d.ports[other].Operational() {
		d.failover(other)
		return
	}
	if !d.ports[0].Operational() && !d.ports[1].Operational() && d.handler != nil {
		d.handler.OnBusOff()
	}
}

// onEvent runs the selection logic for one frame or confirmation event.
func (d *DualPort) onEvent(medium int, f can.Frame, own, cnf bool) {
	key := keyOf(f, cnf)
	now := d.sched.Now()
	d.recent[medium][key] = append(d.recent[medium][key], now)
	d.gc(medium, key, now)

	if medium == d.active {
		// Pass through; a standby copy waiting on this frame is satisfied.
		if ev, ok := d.waiting[key]; ok {
			ev.Cancel()
			delete(d.waiting, key)
		}
		d.dispatch(f, own, cnf)
		return
	}
	// Standby delivery: if the active medium already matched it (same
	// identity within the grace window), drop the copy; otherwise arm the
	// failover timer.
	if d.matchedRecently(d.active, key, now) {
		return
	}
	if _, pending := d.waiting[key]; pending {
		return
	}
	fCopy, ownCopy, cnfCopy := f, own, cnf
	d.waiting[key] = d.sched.After(grace, func() {
		delete(d.waiting, keyOf(fCopy, cnfCopy))
		// The active medium never produced the frame: it is failing.
		d.failover(medium)
		d.dispatch(fCopy, ownCopy, cnfCopy)
	})
}

// matchedRecently reports whether the medium produced an equal event
// within the grace window.
func (d *DualPort) matchedRecently(medium int, key frameKey, now sim.Time) bool {
	for _, at := range d.recent[medium][key] {
		if now.Sub(at) <= grace {
			return true
		}
	}
	return false
}

// gc trims match records older than the grace window.
func (d *DualPort) gc(medium int, key frameKey, now sim.Time) {
	times := d.recent[medium][key]
	keep := times[:0]
	for _, at := range times {
		if now.Sub(at) <= grace {
			keep = append(keep, at)
		}
	}
	if len(keep) == 0 {
		delete(d.recent[medium], key)
		return
	}
	d.recent[medium][key] = keep
}

// failover switches the active medium.
func (d *DualPort) failover(to int) {
	if d.active == to {
		return
	}
	d.active = to
	d.Failovers++
	// Pending waits belong to the previous selection decision.
	for k, ev := range d.waiting {
		ev.Cancel()
		delete(d.waiting, k)
	}
}

// dispatch forwards an event to the logical handler.
func (d *DualPort) dispatch(f can.Frame, own, cnf bool) {
	if d.handler == nil {
		return
	}
	if cnf {
		d.handler.OnConfirm(f)
		return
	}
	d.handler.OnFrame(f, own)
}
