// Package federation implements the hierarchical membership layer of a
// multi-segment CANELy site. A single CAN bus tops out at a few dozen
// nodes, so a production-scale site is a federation of segments joined by
// gateways; per-segment CANELy membership (internal/core/membership) runs
// unchanged inside every segment, and this layer agrees on which *segments*
// are alive — the cross-segment site view.
//
// The mechanism is digest exchange. Every gateway periodically announces a
// digest for each segment it is attached to: a TypeFed data frame
// mid = {FED, segment, gateway} whose 8-byte payload is the segment's
// current membership view as a NodeSet. Digests travel over the backbone
// medium that interconnects the gateways (or, for a dual-homed gateway
// bridging two segments directly, stay local). A segment is in the site
// view while a fresh, non-empty digest for it exists; a segment whose
// digests stop — its gateways crashed, or it was partitioned off the
// backbone — is removed after the staleness bound Tstale, exactly like a
// silent node is removed by the failure detector inside a segment.
//
// Redundant gateways on one segment coordinate by leader suppression: a
// gateway that hears a digest for its own segment from a lower-numbered
// gateway stays silent for a suppression window (2·Tann). When the leader
// crashes its digests stop, the window lapses, and the backup resumes
// announcing within 2·Tann + Tann — which is why Validate requires
// Tstale ≥ 4·Tann: remote segments must ride through a failover without a
// false removal.
//
// Core is written in the same sans-I/O Step(Event) []Command style as the
// other protocol cores: it is pure, comparable-value-typed and replayable
// by internal/replay. The runtime binding (internal/gateway) pumps local
// segment views in as EvFedLocalView, received backbone frames as
// EvDataInd, and executes the digest transmissions, timers and site
// notifications the core emits.
package federation

import (
	"fmt"
	"hash/maphash"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/sim"
)

// suppressPeriods is the leader-suppression window in announce periods: a
// backup gateway stays silent for this long after hearing a lower-numbered
// gateway announce its segment.
const suppressPeriods = 2

// Config parameterizes one gateway's federation core.
type Config struct {
	// Gateway is the federation-wide gateway identity: the source of this
	// core's digests and the tiebreaker for leader suppression (lower id
	// announces).
	Gateway can.NodeID `json:"gateway"`
	// Locals is the set of segment ids this gateway is attached to and
	// responsible for announcing.
	Locals can.NodeSet `json:"locals"`
	// Tann is the digest announcement period.
	Tann time.Duration `json:"tann"`
	// Tstale is the staleness bound: a remote segment unheard for Tstale is
	// removed from the site view. Must be at least 4·Tann so a gateway
	// failover (suppression window plus one announce period) cannot cause a
	// false removal.
	Tstale time.Duration `json:"tstale"`
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Gateway.Valid() {
		return fmt.Errorf("federation: invalid gateway id %d", c.Gateway)
	}
	if c.Tann <= 0 {
		return fmt.Errorf("federation: announce period Tann must be positive, got %v", c.Tann)
	}
	if c.Tstale < 4*c.Tann {
		return fmt.Errorf("federation: staleness bound Tstale=%v must be at least 4*Tann=%v to ride through gateway failover",
			c.Tstale, 4*c.Tann)
	}
	return nil
}

// Core is the federation membership protocol core at one gateway. It is
// pure: all I/O flows through proto Events and Commands.
type Core struct {
	cfg Config

	booted bool
	// site is the current cross-segment site view: the set of segments
	// believed alive.
	site can.NodeSet
	// members holds the last known membership view per segment — fed by
	// EvFedLocalView for local segments, by digests for remote ones.
	members [can.MaxNodes]can.NodeSet

	// deadlines is indexed by segment id; armed is the set of remote
	// segments under staleness surveillance. One scan timer chases the
	// earliest deadline, exactly like the failure detector's.
	deadlines   [can.MaxNodes]sim.Time
	armed       can.NodeSet
	scanAt      sim.Time
	scanPending bool

	// suppressUntil implements leader suppression per local segment.
	suppressUntil [can.MaxNodes]sim.Time

	// announced counts digest transmissions for the bandwidth experiments.
	announced int
}

// New creates the federation core for one gateway.
func New(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{cfg: cfg}, nil
}

// Clone returns an independent deep copy of the core.
func (c *Core) Clone() *Core {
	d := *c
	return &d
}

// StepInto consumes one event, appending the resulting commands to buf.
func (c *Core) StepInto(ev proto.Event, buf *proto.CommandBuf) {
	switch ev.Kind {
	case proto.EvBootstrap:
		c.bootstrap(ev.View, ev.At, buf)
	case proto.EvFedLocalView:
		c.localView(ev.Node, ev.View, ev.At, buf)
	case proto.EvDataInd:
		if ev.MID.Type == can.TypeFed {
			c.digest(ev.MID, ev.At, ev.Payload(), buf)
		}
	case proto.EvTimerFired:
		switch ev.Timer {
		case proto.TimerFedAnnounce:
			c.announce(ev.At, buf)
		case proto.TimerFedScan:
			c.scan(ev.At, buf)
		}
	}
}

// SiteView returns the current cross-segment site view.
func (c *Core) SiteView() can.NodeSet { return c.site }

// Fingerprint writes the core's complete mutable state into h. Member
// views and suppression windows are sparse per-segment arrays, folded
// order-independently over their non-zero slots; a staleness deadline is
// meaningful only while its armed bit is set, and scanAt only while the
// scan timer is pending.
func (c *Core) Fingerprint(h *maphash.Hash) {
	proto.HashU64(h, uint64(c.cfg.Gateway))
	proto.HashBool(h, c.booted)
	proto.HashU64(h, uint64(c.site))
	var acc uint64
	for i, m := range c.members {
		if m != can.EmptySet {
			acc ^= proto.MixPair(uint64(i), uint64(m))
		}
	}
	proto.HashU64(h, acc)
	proto.HashU64(h, uint64(c.armed))
	for s := c.armed; !s.Empty(); {
		seg := s.Lowest()
		s = s.Remove(seg)
		proto.HashU64(h, uint64(c.deadlines[seg]))
	}
	proto.HashBool(h, c.scanPending)
	if c.scanPending {
		proto.HashU64(h, uint64(c.scanAt))
	}
	acc = 0
	for i, until := range c.suppressUntil {
		if until != 0 {
			acc ^= proto.MixPair(uint64(i), uint64(until))
		}
	}
	proto.HashU64(h, acc)
	proto.HashU64(h, uint64(c.announced))
}

// Members returns the last known membership view of a segment.
func (c *Core) Members(seg can.NodeID) can.NodeSet {
	if !seg.Valid() {
		return can.EmptySet
	}
	return c.members[seg]
}

// Announced returns the number of digest transmissions requested.
func (c *Core) Announced() int { return c.announced }

// bootstrap installs the pre-agreed initial site view and starts the
// announce cycle. Remote segments in the initial view get a full staleness
// grace; local segments are announced immediately. Drivers must bootstrap
// the per-segment member stacks first so the local views announced here are
// non-empty.
func (c *Core) bootstrap(site can.NodeSet, at sim.Time, buf *proto.CommandBuf) {
	if c.booted {
		return
	}
	c.booted = true
	c.site = site
	for s := site.Diff(c.cfg.Locals); !s.Empty(); {
		seg := s.Lowest()
		s = s.Remove(seg)
		c.arm(seg, at, buf)
	}
	c.announceLocals(at, buf)
	buf.Put(proto.SetTimer(proto.TimerFedAnnounce, sim.Duration(c.cfg.Tann)))
}

// localView absorbs a segment-local membership view (EvFedLocalView). A
// non-empty view keeps or puts the segment in the site; a view that became
// empty — every member of the local segment crashed — removes it at once
// (remote gateways remove it by staleness when its digests stop). Changes
// are announced immediately so cross-segment convergence is event-driven,
// not just periodic.
func (c *Core) localView(seg can.NodeID, view can.NodeSet, at sim.Time, buf *proto.CommandBuf) {
	if !seg.Valid() || !c.cfg.Locals.Contains(seg) {
		return
	}
	changed := c.members[seg] != view
	c.members[seg] = view
	if !c.booted {
		return
	}
	switch {
	case !view.Empty() && !c.site.Contains(seg):
		c.updateSite(c.site.Add(seg), can.EmptySet, buf)
	case view.Empty() && c.site.Contains(seg):
		c.updateSite(c.site.Remove(seg), can.MakeSet(seg), buf)
	}
	if changed && !view.Empty() && at >= c.suppressUntil[seg] {
		c.emitDigest(seg, buf)
	}
}

// digest absorbs a TypeFed frame from another gateway. For a local segment
// it only feeds leader suppression; for a remote segment it refreshes the
// staleness deadline and (re)admits the segment to the site view. Empty and
// malformed payloads are ignored: a live segment always has members, so an
// announced view is never empty.
func (c *Core) digest(mid can.MID, at sim.Time, payload []byte, buf *proto.CommandBuf) {
	seg := can.NodeID(mid.Param)
	if !seg.Valid() || mid.Src == c.cfg.Gateway {
		return
	}
	view, err := can.SetFromBytes(payload)
	if err != nil || view.Empty() {
		return
	}
	if c.cfg.Locals.Contains(seg) {
		if mid.Src < c.cfg.Gateway {
			c.suppressUntil[seg] = at.Add(suppressPeriods * sim.Duration(c.cfg.Tann))
		}
		return
	}
	c.members[seg] = view
	if !c.booted {
		return
	}
	c.arm(seg, at, buf)
	if !c.site.Contains(seg) {
		c.updateSite(c.site.Add(seg), can.EmptySet, buf)
	}
}

// announce fires the periodic digest cycle for every local segment and
// re-arms the announce timer.
func (c *Core) announce(at sim.Time, buf *proto.CommandBuf) {
	if !c.booted {
		return
	}
	c.announceLocals(at, buf)
	buf.Put(proto.SetTimer(proto.TimerFedAnnounce, sim.Duration(c.cfg.Tann)))
}

// announceLocals emits one digest per local segment with a non-empty,
// unsuppressed view.
func (c *Core) announceLocals(at sim.Time, buf *proto.CommandBuf) {
	for s := c.cfg.Locals; !s.Empty(); {
		seg := s.Lowest()
		s = s.Remove(seg)
		if c.members[seg].Empty() || at < c.suppressUntil[seg] {
			continue
		}
		c.emitDigest(seg, buf)
	}
}

// emitDigest traces and queues one digest transmission.
func (c *Core) emitDigest(seg can.NodeID, buf *proto.CommandBuf) {
	c.announced++
	buf.Put(proto.TraceFedDigest(seg, c.members[seg]))
	buf.Put(proto.SendData(can.FedDigestSign(seg, c.cfg.Gateway), c.members[seg].Bytes()))
}

// arm (re)starts staleness surveillance of a remote segment and keeps the
// scan-timer invariant (a pending timer no later than the earliest armed
// deadline — the detector's chasing-minimum pattern).
func (c *Core) arm(seg can.NodeID, at sim.Time, buf *proto.CommandBuf) {
	c.deadlines[seg] = at.Add(sim.Duration(c.cfg.Tstale))
	c.armed = c.armed.Add(seg)
	c.ensureScan(c.deadlines[seg], at, buf)
}

// ensureScan keeps a scan timer pending no later than the given deadline.
func (c *Core) ensureScan(at, now sim.Time, buf *proto.CommandBuf) {
	if c.scanPending && c.scanAt <= at {
		return
	}
	c.scanAt = at
	c.scanPending = true
	buf.Put(proto.SetTimer(proto.TimerFedScan, at.Sub(now)))
}

// scan removes remote segments whose digests went stale and re-arms at the
// earliest remaining deadline.
func (c *Core) scan(now sim.Time, buf *proto.CommandBuf) {
	c.scanPending = false
	var expired can.NodeSet
	next := sim.Never
	for s := c.armed; !s.Empty(); {
		seg := s.Lowest()
		s = s.Remove(seg)
		if dl := c.deadlines[seg]; dl <= now {
			expired = expired.Add(seg)
		} else if dl < next {
			next = dl
		}
	}
	c.armed = c.armed.Diff(expired)
	if !expired.Empty() {
		for s := expired; !s.Empty(); {
			seg := s.Lowest()
			s = s.Remove(seg)
			buf.Put(proto.TraceSegmentStale(seg))
		}
		failed := expired.Intersect(c.site)
		if !failed.Empty() {
			c.updateSite(c.site.Diff(failed), failed, buf)
		}
	}
	if next != sim.Never {
		c.ensureScan(next, now, buf)
	}
}

// updateSite installs a new site view and notifies the application.
func (c *Core) updateSite(site, failed can.NodeSet, buf *proto.CommandBuf) {
	old := c.site
	c.site = site
	buf.Put(proto.TraceSiteChange(old, site))
	buf.Put(proto.NotifySite(site, failed))
}
