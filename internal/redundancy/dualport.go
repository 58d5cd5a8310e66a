// Package redundancy implements the CANELy media redundancy scheme of [17]
// ("A Columbus' egg idea for CAN media redundancy", FTCS-29) — the
// mechanism behind the "media redundancy: yes" row of the paper's
// Figure 11 and the footnote-4 assumption that medium partitions do not
// partition the *network*.
//
// The egg: replicate the transmission medium and drive every replica
// simultaneously from the same CAN controller. No protocol coordinates the
// replicas — every frame travels on every medium, so a receiver needs only
// one good copy, and merging the per-medium receive lines is purely local:
// a partition, a stuck-at fault or a babbling segment on one medium is
// transparent as long as one replica still connects the nodes.
//
// DualPort is that merge at the controller interface, over two simulated
// media. Its tests inject each single-medium fault class — cut,
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
// a first-copy merge. A copy that arrives on one medium is passed up at
// once, unless the sibling medium passed up the same frame within grace
// and that copy is still unmatched: then the two copies pair off and this
// one is dropped. Every copy is either passed up or pairs with a distinct
// copy that was, so a frame any medium delivers reaches the node — a
// partition, jam or dead driver on one medium never partitions it.
//
// A copy the sibling carries more than grace later is passed up again;
// duplicates are within CAN's LLC contract (LCAN3, at-least-once) and every
// CANELy protocol absorbs them by design — the paper's duplicate counters
// exist for exactly this class of event.
//
// DualPort implements canlayer.Controller, so the entire protocol stack
// runs over it unchanged. It reads the scheduler's clock and schedules
// nothing.
type DualPort struct {
	sched *sim.Scheduler
	ports [2]Port

	handler bus.Handler

	// passed holds, per medium, the copies it passed up within the last
	// grace that no sibling copy has matched yet, oldest first.
	passed [2][]passedCopy
}

// passedCopy is one unmatched copy a medium passed up, and when.
type passedCopy struct {
	key frameKey
	at  sim.Time
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
// the exposed controller interface plus the liveness the merge needs for
// bus-off propagation. Satisfied by *bus.Port, by the fastbus substrate's
// ports and by DualPort itself, so a stack drives one medium or two
// through the same type.
type Port interface {
	canlayer.Controller
	Crash()
	Operational() bool
}

var _ Port = (*bus.Port)(nil)

// grace is how long a passed-up copy waits for its sibling: one worst-case
// frame.
const grace = 200 * time.Microsecond

// NewDualPort attaches the node to both media. The two ports must carry
// the same node identity.
func NewDualPort(sched *sim.Scheduler, a, b Port) *DualPort {
	if a.ID() != b.ID() {
		panic(fmt.Sprintf("redundancy: port identities differ: %v vs %v", a.ID(), b.ID()))
	}
	d := &DualPort{sched: sched, ports: [2]Port{a, b}}
	a.SetHandler(&mediumTap{d: d, medium: 0})
	b.SetHandler(&mediumTap{d: d, medium: 1})
	return d
}

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

var _ Port = (*DualPort)(nil)

// mediumTap receives one medium's indications.
type mediumTap struct {
	d      *DualPort
	medium int
}

func (t *mediumTap) OnFrame(f can.Frame, own bool) { t.d.onCopy(t.medium, f, own, false) }
func (t *mediumTap) OnConfirm(f can.Frame)         { t.d.onCopy(t.medium, f, false, true) }

// OnBusOff propagates only once neither medium serves the node.
func (t *mediumTap) OnBusOff() {
	d := t.d
	d.trim(d.sched.Now())
	if !d.Operational() && d.handler != nil {
		d.handler.OnBusOff()
	}
}

// onCopy merges one medium's copy of a frame or confirmation.
func (d *DualPort) onCopy(medium int, f can.Frame, own, cnf bool) {
	now := d.sched.Now()
	d.trim(now)
	key := keyOf(f, cnf)
	sib := d.passed[1-medium]
	for i := range sib {
		if sib[i].key == key {
			d.passed[1-medium] = append(sib[:i], sib[i+1:]...)
			return
		}
	}
	d.passed[medium] = append(d.passed[medium], passedCopy{key: key, at: now})
	if d.handler == nil {
		return
	}
	if cnf {
		d.handler.OnConfirm(f)
		return
	}
	d.handler.OnFrame(f, own)
}

// trim forgets the copies passed up more than grace ago: a sibling copy
// that late is a delivery of its own, not a match.
func (d *DualPort) trim(now sim.Time) {
	for m, q := range d.passed {
		old := 0
		for old < len(q) && now.Sub(q[old].at) > grace {
			old++
		}
		d.passed[m] = q[:copy(q, q[old:])]
	}
}
