// Package gateway implements the bridge node of a multi-segment CANELy
// federation. A Gateway attaches to two or more stack.Medium instances —
// simulated segments (bit or fast substrate), a backbone interconnect, or
// live rt media — and bridges membership, never frames:
//
//   - on every segment medium (a member link) the gateway runs a full
//     member stack, so segment membership observes the gateway like any
//     other node and the gateway observes the segment's agreed view;
//   - on every backbone medium (a raw link) it attaches a bare port that
//     carries only federation digests.
//
// The segment views feed the sans-I/O federation core
// (internal/federation), whose digests are transmitted on the raw links;
// the core's site view is the gateway's answer to "which segments are
// alive". Segment-local protocol traffic (life-signs, FDA, RHA,
// membership) never leaves its segment, which is what keeps per-segment
// CANELy membership sound in a federation.
//
// The Gateway is scheduler-driven and sans-goroutine: over simulated media
// it is deterministic and replayable (the federation core's streams record
// into internal/replay); over rt media it runs on the loop exactly like a
// live node. Faults arrive through internal/fault on the attached media —
// rules on the backbone's digests (fault.TagDigests) partition whole
// segments or crash gateways — or directly via Crash.
package gateway

import (
	"fmt"
	"time"

	"canely/internal/can"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/federation"
	"canely/internal/replay"
	"canely/internal/sim"
	"canely/internal/stack"
)

// Config parameterizes a Gateway.
type Config struct {
	// ID is the federation-wide gateway identity: the source of digests,
	// the leader-suppression tiebreaker, and the attach id on raw links.
	ID can.NodeID
	// Tann is the digest announcement period.
	Tann time.Duration
	// Tstale is the segment staleness bound (>= 4*Tann, federation.Config).
	Tstale time.Duration
	// Recorder, when non-nil, captures the federation core's event/command
	// streams for deterministic re-execution (internal/replay).
	Recorder *replay.Log
}

// memberLink is the gateway's full member stack on one segment.
type memberLink struct {
	segment can.NodeID
	member  *stack.Stack
	view    can.NodeSet // bootstrap view
}

// Gateway federates membership across its links.
type Gateway struct {
	sched *sim.Scheduler
	cfg   Config

	members []*memberLink
	raws    []stack.Port // bare digest ports on the backbones

	fed    *federation.Core
	booted bool

	// Binding-owned alarm machinery for the federation core, mirroring the
	// stack binding: a lazy announce timer and a raw chasing scan event.
	annTimer *sim.Timer
	scanEv   sim.Event

	// onSite fans out fed-can.nty consumers in registration order.
	onSite []func(active, failed can.NodeSet)

	crashed bool

	// bufs is the fedStep command-buffer free-list (see stack.Stack.bufs).
	bufs []*proto.CommandBuf
}

// New creates a gateway; attach links with AddMemberLink/AddRawLink, then
// Bootstrap.
func New(sched *sim.Scheduler, cfg Config) (*Gateway, error) {
	if !cfg.ID.Valid() {
		return nil, fmt.Errorf("gateway: invalid gateway id %d", cfg.ID)
	}
	g := &Gateway{sched: sched, cfg: cfg}
	g.annTimer = sim.NewTimer(sched, func() {
		g.fedStep(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce})
	})
	return g, nil
}

// AddMemberLink attaches the gateway to a segment medium as a full member
// of that segment: localID is the gateway's node identity inside the
// segment, view the segment's pre-agreed bootstrap view (which must include
// localID), scfg the member stack parameterization and hooks an optional
// observer chained before the gateway's own digest snooping.
func (g *Gateway) AddMemberLink(m stack.Medium, segment, localID can.NodeID, view can.NodeSet, scfg stack.Config, hooks *stack.Hooks) error {
	if g.booted {
		return fmt.Errorf("gateway: links must be attached before Bootstrap")
	}
	if !segment.Valid() {
		return fmt.Errorf("gateway: invalid segment id %d", segment)
	}
	st, err := stack.New(g.sched, []stack.Medium{m}, localID, scfg, nil, g.memberHooks(hooks))
	if err != nil {
		return err
	}
	st.OnChange(func(ch membership.Change) {
		g.fedStep(proto.Event{Kind: proto.EvFedLocalView, Node: segment, View: ch.Active})
	})
	g.members = append(g.members, &memberLink{segment: segment, member: st, view: view})
	return nil
}

// AddRawLink attaches the gateway to a backbone medium as a bare port: no
// member stack, digests in and out.
func (g *Gateway) AddRawLink(m stack.Medium) error {
	if g.booted {
		return fmt.Errorf("gateway: links must be attached before Bootstrap")
	}
	p := m.Attach(g.cfg.ID)
	p.SetHandler(rawHandler{g})
	g.raws = append(g.raws, p)
	return nil
}

// Bootstrap builds the federation core over the attached member segments,
// bootstraps every member stack with its pre-agreed segment view, then
// installs the pre-agreed initial site view — in that order, so the first
// digests announce real member sets.
func (g *Gateway) Bootstrap(site can.NodeSet) error {
	if g.booted {
		return fmt.Errorf("gateway: already bootstrapped")
	}
	var locals can.NodeSet
	for _, l := range g.members {
		locals = locals.Add(l.segment)
	}
	fcfg := federation.Config{Gateway: g.cfg.ID, Locals: locals, Tann: g.cfg.Tann, Tstale: g.cfg.Tstale}
	fed, err := federation.New(fcfg)
	if err != nil {
		return err
	}
	g.fed = fed
	g.booted = true
	if g.cfg.Recorder != nil {
		g.cfg.Recorder.Register(replay.NodeConfig{ID: g.cfg.ID, Fed: &fcfg})
	}
	for _, l := range g.members {
		l.member.Bootstrap(l.view)
	}
	// Membership bootstrap installs the pre-agreed view without a change
	// notification (nothing changed), so seed the local views explicitly.
	for _, l := range g.members {
		g.fedStep(proto.Event{Kind: proto.EvFedLocalView, Node: l.segment, View: l.member.Msh.View()})
	}
	g.fedStep(proto.Event{Kind: proto.EvBootstrap, View: site})
	return nil
}

// OnSiteChange registers a site view consumer (fed-can.nty).
func (g *Gateway) OnSiteChange(fn func(active, failed can.NodeSet)) {
	g.onSite = append(g.onSite, fn)
}

// SiteView returns the gateway's current cross-segment site view.
func (g *Gateway) SiteView() can.NodeSet {
	if g.fed == nil {
		return can.EmptySet
	}
	return g.fed.SiteView()
}

// Members returns the gateway's last known membership view of a segment.
func (g *Gateway) Members(seg can.NodeID) can.NodeSet {
	if g.fed == nil {
		return can.EmptySet
	}
	return g.fed.Members(seg)
}

// ID returns the federation-wide gateway identity.
func (g *Gateway) ID() can.NodeID { return g.cfg.ID }

// Alive reports whether the gateway has not crashed.
func (g *Gateway) Alive() bool { return !g.crashed }

// Crash fail-silences the gateway on every link: member stacks and raw
// ports stop transmitting, timers stop.
func (g *Gateway) Crash() {
	if g.crashed {
		return
	}
	g.crashed = true
	for _, l := range g.members {
		l.member.Crash()
	}
	for _, p := range g.raws {
		p.Crash()
	}
	g.annTimer.Stop()
	g.scanEv.Cancel()
	g.scanEv = sim.Event{}
}

// memberHooks chains an optional user observer before the gateway's digest
// snooping on a member link.
func (g *Gateway) memberHooks(user *stack.Hooks) *stack.Hooks {
	h := &stack.Hooks{}
	if user != nil {
		*h = *user
	}
	userInd := h.OnIndication
	h.OnIndication = func(node can.NodeID, f can.Frame, own bool) {
		if userInd != nil {
			userInd(node, f, own)
		}
		g.onLinkFrame(f, own)
	}
	return h
}

// rawHandler adapts a raw link's port indications.
type rawHandler struct{ g *Gateway }

func (h rawHandler) OnFrame(f can.Frame, own bool) { h.g.onLinkFrame(f, own) }
func (h rawHandler) OnConfirm(can.Frame)           {}
func (h rawHandler) OnBusOff()                     {}

// onLinkFrame is the shared reception path of every link: federation
// digests feed the core. Own transmissions are skipped.
func (g *Gateway) onLinkFrame(f can.Frame, own bool) {
	if own || g.crashed {
		return
	}
	if mid, err := can.DecodeMID(f.ID); err == nil && mid.Type == can.TypeFed && !f.RTR {
		g.fedStep(proto.Event{Kind: proto.EvDataInd, MID: mid}.WithPayload(f.Payload()))
	}
}

// fedStep pumps one event through the federation core, records it, and
// executes the command stream — the gateway-side mirror of stack.inject.
func (g *Gateway) fedStep(ev proto.Event) {
	if g.fed == nil || g.crashed {
		return
	}
	ev.At = g.sched.Now()
	buf := g.getBuf()
	g.fed.StepInto(ev, buf)
	if g.cfg.Recorder != nil {
		g.cfg.Recorder.Append(g.cfg.ID, ev, buf.Commands())
	}
	g.fedExec(buf.Commands())
	g.putBuf(buf)
}

func (g *Gateway) getBuf() *proto.CommandBuf {
	if n := len(g.bufs); n > 0 {
		buf := g.bufs[n-1]
		g.bufs = g.bufs[:n-1]
		return buf
	}
	return new(proto.CommandBuf)
}

func (g *Gateway) putBuf(buf *proto.CommandBuf) {
	buf.Reset()
	g.bufs = append(g.bufs, buf)
}

// fedExec carries out a federation command stream against the raw links,
// the alarm machinery and the site notification consumers.
func (g *Gateway) fedExec(cmds []proto.Command) {
	for _, c := range cmds {
		switch c.Kind {
		case proto.CmdSendData:
			f := can.Frame{ID: c.MID.Encode()}
			f.SetPayload(c.Payload())
			for _, p := range g.raws {
				_ = p.Request(f)
			}
		case proto.CmdSetTimer:
			switch c.Timer {
			case proto.TimerFedAnnounce:
				g.annTimer.Start(c.Delay)
			case proto.TimerFedScan:
				g.scanEv.Cancel()
				g.scanEv = g.sched.After(c.Delay, func() {
					// Drop the handle before reuse: the scheduler recycles
					// the fired event (see stack.New's scan machinery).
					g.scanEv = sim.Event{}
					g.fedStep(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedScan})
				})
			}
		case proto.CmdCancelTimer:
			switch c.Timer {
			case proto.TimerFedAnnounce:
				g.annTimer.Stop()
			case proto.TimerFedScan:
				g.scanEv.Cancel()
				g.scanEv = sim.Event{}
			}
		case proto.CmdNotifySite:
			for _, fn := range g.onSite {
				fn(c.Active, c.Failed)
			}
		}
	}
}
