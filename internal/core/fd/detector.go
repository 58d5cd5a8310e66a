package fd

import (
	"fmt"
	"hash/maphash"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/sim"
)

// Config parameterizes the failure detection protocol of Figure 8.
type Config struct {
	// Tb is the heartbeat period: the maximum interval between consecutive
	// life-sign transmit requests at a node. The local surveillance timer
	// runs at Tb.
	Tb time.Duration
	// Ttd is the bound on the network message transmission delay
	// (Ttd = Tqueue + Ttx + Tina, per MCAN4). Timers monitoring remote
	// nodes run at Tb+Ttd.
	Ttd time.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tb <= 0 {
		return fmt.Errorf("fd: heartbeat period Tb must be positive, got %v", c.Tb)
	}
	if c.Ttd <= 0 {
		return fmt.Errorf("fd: transmission delay bound Ttd must be positive, got %v", c.Ttd)
	}
	return nil
}

// DetectionLatency returns the worst-case interval between a node's crash
// and the delivery of the failure notification at correct nodes: the
// remote surveillance window plus the failure-sign diffusion delay.
func (c Config) DetectionLatency() time.Duration {
	return c.Tb + 2*c.Ttd
}

// Detector is the node failure detection protocol core at one node
// (Figure 8). It monitors a configurable set of nodes through per-node
// surveillance deadlines; node activity is observed implicitly from data
// traffic (can-data.nty, own transmissions included) and explicitly from
// life-sign (ELS) remote frames. Expiry of the local deadline triggers an
// ELS broadcast; expiry of a remote deadline triggers the FDA
// micro-protocol.
//
// Surveillance restarts on every delivered frame but almost never expires,
// so the deadlines are plain array slots and a single logical scan timer
// (proto.TimerFDScan) chases the earliest one: a restart is two stores and
// usually no command, and the scheduler behind the binding carries one
// pending event per node instead of one per (node, monitored node) pair.
type Detector struct {
	cfg   Config
	local can.NodeID

	// deadlines is indexed by node id; armed is the set of ids under
	// surveillance. A slot is meaningful only while its bit is set.
	deadlines [can.MaxNodes]sim.Time
	armed     can.NodeSet
	// scanAt is the instant of the pending scan timer. Invariant: while any
	// node is armed, the timer is pending with
	// scanAt <= min(deadlines of armed nodes).
	scanAt      sim.Time
	scanPending bool

	// fdaInFlight tracks remote nodes whose silence this detector reported
	// to the FDA micro-protocol and whose failure-sign has not yet been
	// agreed. suppress marks nodes whose surveillance was stopped while
	// such a report was in flight: a late fda-can.nty for them is stale
	// and must not surface as a failure (fd.Detector.Stop contract).
	fdaInFlight can.NodeSet
	suppress    can.NodeSet

	// lifeSigns counts explicit life-sign broadcasts for the bandwidth
	// experiments.
	lifeSigns int
}

// NewDetector creates the protocol core for the given node.
func NewDetector(local can.NodeID, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !local.Valid() {
		return nil, fmt.Errorf("fd: invalid local node id %d", local)
	}
	return &Detector{cfg: cfg, local: local}, nil
}

// Clone returns an independent deep copy of the core.
func (d *Detector) Clone() *Detector {
	c := *d
	return &c
}

// Quiet reports that no failure-sign report of this detector awaits
// agreement: the only detector activity reachable from a quiet state whose
// surveillance deadlines keep being met is life-sign traffic and alarm
// restarts. The exploration engine's settle shortcut keys on it.
func (d *Detector) Quiet() bool { return d.fdaInFlight.Empty() }

// StepInto consumes one event, appending the resulting commands to buf.
// The common case — traffic activity restarting a forward-moving deadline —
// appends nothing.
func (d *Detector) StepInto(ev proto.Event, buf *proto.CommandBuf) {
	switch ev.Kind {
	case proto.EvDataNty:
		// Implicit node activity: every data frame (own transmissions
		// included) restarts the transmitter's surveillance timer
		// (lines f03–f05).
		d.activity(ev.MID.Src, ev.At, buf)
	case proto.EvRTRInd:
		// Explicit life-signs (lines f03–f05). Only ELS remote frames
		// carry a node identity usable as an activity signal; other
		// remote frames are clustered and do not identify their
		// transmitter.
		if ev.MID.Type == can.TypeELS {
			d.activity(can.NodeID(ev.MID.Param), ev.At, buf)
		}
	case proto.EvTimerFired:
		if ev.Timer == proto.TimerFDScan {
			d.scan(ev.At, buf)
		}
	case proto.EvFDStart:
		d.start(ev.Node, ev.At, buf)
	case proto.EvFDStop:
		d.stop(ev.Node, buf)
	case proto.EvFDANty:
		d.onFDANty(ev.Node, buf)
	}
}

// Fingerprint writes the detector's complete mutable state into h. A
// deadline slot is meaningful only while its armed bit is set, and scanAt
// only while the scan timer is pending, so unguarded residue is skipped —
// logically equal states hash equal.
func (d *Detector) Fingerprint(h *maphash.Hash) {
	proto.HashU64(h, uint64(d.local))
	proto.HashU64(h, uint64(d.armed))
	for s := d.armed; !s.Empty(); {
		r := s.Lowest()
		s = s.Remove(r)
		proto.HashU64(h, uint64(d.deadlines[r]))
	}
	proto.HashBool(h, d.scanPending)
	if d.scanPending {
		proto.HashU64(h, uint64(d.scanAt))
	}
	proto.HashU64(h, uint64(d.fdaInFlight))
	proto.HashU64(h, uint64(d.suppress))
	proto.HashU64(h, uint64(d.lifeSigns))
}

// Monitoring reports whether node r is under surveillance.
func (d *Detector) Monitoring(r can.NodeID) bool {
	return d.armed.Contains(r)
}

// LifeSigns returns the number of explicit life-sign broadcasts requested.
func (d *Detector) LifeSigns() int { return d.lifeSigns }

// start begins surveillance of a node (fd-can.req(START,r), lines f00–f02).
// Starting an already-monitored node restarts its timer. A fresh start also
// clears any stale-notification suppression left by a Stop.
func (d *Detector) start(r can.NodeID, at sim.Time, buf *proto.CommandBuf) {
	if !r.Valid() {
		return
	}
	d.suppress = d.suppress.Remove(r)
	d.fdaInFlight = d.fdaInFlight.Remove(r)
	d.alarmStart(r, at, buf)
}

// stop ends surveillance of a node (fd-can.req(STOP,r), lines f17–f19). If
// this detector has an unagreed failure-sign request in flight for the
// node, the request is retracted and any late agreement is suppressed, so
// a stale expiry cannot surface after surveillance was disabled.
func (d *Detector) stop(r can.NodeID, buf *proto.CommandBuf) {
	if !r.Valid() {
		return
	}
	d.armed = d.armed.Remove(r)
	if d.fdaInFlight.Contains(r) {
		d.suppress = d.suppress.Add(r)
		buf.Put(proto.FDACancel(r))
	}
}

// alarmStart implements fd-alarm-start (lines a00–a06): the local timer
// runs at Tb, remote surveillance at Tb+Ttd.
func (d *Detector) alarmStart(r can.NodeID, at sim.Time, buf *proto.CommandBuf) {
	period := d.cfg.Tb
	if r != d.local {
		period += d.cfg.Ttd
	}
	d.deadlines[r] = at.Add(period)
	d.armed = d.armed.Add(r)
	d.ensureScan(d.deadlines[r], at, buf)
}

// ensureScan keeps the scan-timer invariant: a pending timer no later than
// the given deadline. Deadlines almost always move forward, so the common
// case is a no-op; the timer "chases" the true minimum when it fires.
func (d *Detector) ensureScan(at, now sim.Time, buf *proto.CommandBuf) {
	if d.scanPending && d.scanAt <= at {
		return
	}
	d.scanAt = at
	d.scanPending = true
	buf.Put(proto.SetTimer(proto.TimerFDScan, at.Sub(now)))
}

// scan fires expired surveillance deadlines and re-arms at the earliest
// remaining one.
func (d *Detector) scan(now sim.Time, buf *proto.CommandBuf) {
	d.scanPending = false
	var expired can.NodeSet
	next := sim.Never
	for s := d.armed; !s.Empty(); {
		r := s.Lowest()
		s = s.Remove(r)
		if dl := d.deadlines[r]; dl <= now {
			expired = expired.Add(r)
		} else if dl < next {
			next = dl
		}
	}
	d.armed = d.armed.Diff(expired)
	for s := expired; !s.Empty(); {
		r := s.Lowest()
		s = s.Remove(r)
		d.expire(r, now, buf)
	}
	// expire may have re-armed slots (the local ELS backstop) and advanced
	// the invariant through ensureScan; cover the survivors too.
	if next != sim.Never {
		d.ensureScan(next, now, buf)
	}
}

func (d *Detector) activity(r can.NodeID, at sim.Time, buf *proto.CommandBuf) {
	if !r.Valid() {
		return
	}
	if d.armed.Contains(r) {
		d.alarmStart(r, at, buf)
	}
}

// expire handles surveillance timer expiry (lines f06–f12): the local node
// broadcasts an explicit life-sign; a silent remote node is reported to
// the FDA micro-protocol.
func (d *Detector) expire(r can.NodeID, now sim.Time, buf *proto.CommandBuf) {
	if r == d.local {
		d.lifeSigns++
		buf.Put(proto.TraceELS())
		buf.Put(proto.SendRTR(can.ELSSign(d.local)))
		// The timer restarts on the self-reception of the ELS (f03); if the
		// bus is congested the re-arm happens only when the frame makes it
		// out, exactly like the hardware behaves. Re-arm here as a backstop
		// so a lost ELS does not silence the node forever.
		d.alarmStart(r, now, buf)
		return
	}
	d.fdaInFlight = d.fdaInFlight.Add(r)
	buf.Put(proto.TraceTimerExpired(r))
	buf.Put(proto.FDARequest(r))
}

// onFDANty completes the protocol (lines f13–f16): a consistent
// failure-sign cancels the surveillance timer and delivers fd-can.nty to
// the layer above — unless surveillance of the node was stopped while this
// detector's own report was in flight, in which case the agreement is
// stale and dropped locally.
func (d *Detector) onFDANty(r can.NodeID, buf *proto.CommandBuf) {
	if d.suppress.Contains(r) {
		d.suppress = d.suppress.Remove(r)
		d.fdaInFlight = d.fdaInFlight.Remove(r)
		return
	}
	d.armed = d.armed.Remove(r)
	d.fdaInFlight = d.fdaInFlight.Remove(r)
	buf.Put(proto.TraceNodeFailed(r))
	buf.Put(proto.FDNty(r))
}
