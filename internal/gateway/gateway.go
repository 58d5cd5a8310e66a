// Package gateway implements the bridge node of a multi-segment CANELy
// federation. A Gateway attaches to two or more stack.Medium instances —
// simulated segments (bit or fast substrate), a backbone interconnect, or
// live rt media — and plays two roles at once:
//
//   - Frame bridging: per-direction filter tables decide which received
//     frames cross from one link to another. Forwarded frames pass through
//     a bounded store-and-forward queue with a configurable per-hop
//     latency, like a real CAN gateway's mailbox; when the queue is full
//     the frame is dropped (and counted). Nothing is forwarded by default:
//     segment-local protocol traffic (life-signs, FDA, RHA, membership)
//     never leaves its segment, which is what keeps per-segment CANELy
//     membership sound in a federation.
//
//   - Hierarchical membership: on every segment medium the gateway runs a
//     full member stack, so segment membership observes the gateway like
//     any other node and the gateway observes the segment's agreed view.
//     Those views feed the sans-I/O federation core
//     (internal/federation), whose digests are transmitted on the raw
//     (backbone) links; the core's site view is the gateway's answer to
//     "which segments are alive".
//
// The Gateway is scheduler-driven and sans-goroutine: over simulated media
// it is deterministic and replayable (the federation core's streams record
// into internal/replay); over rt media it runs on the loop exactly like a
// live node. Faults arrive through internal/fault on the attached media —
// segment-scoped rules (fault.Tag) partition whole segments, sender-scoped
// rules on digests crash gateways — or directly via Crash.
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

// Filter decides whether a received frame crosses from one link to another.
type Filter func(f can.Frame) bool

// ForwardAll is a Filter that bridges every frame.
func ForwardAll(can.Frame) bool { return true }

// ForwardType returns a Filter bridging only frames of one message type.
func ForwardType(t can.MsgType) Filter {
	return func(f can.Frame) bool {
		mid, err := can.DecodeMID(f.ID)
		return err == nil && mid.Type == t
	}
}

// Config parameterizes a Gateway.
type Config struct {
	// ID is the federation-wide gateway identity: the source of digests,
	// the leader-suppression tiebreaker, and the attach id on raw links.
	ID can.NodeID
	// Tann is the digest announcement period.
	Tann time.Duration
	// Tstale is the segment staleness bound (>= 4*Tann, federation.Config).
	Tstale time.Duration
	// Queue bounds the store-and-forward queue in frames; 0 means 32.
	Queue int
	// Latency is the per-frame forwarding delay through the queue.
	Latency time.Duration
	// Recorder, when non-nil, captures the federation core's event/command
	// streams for deterministic re-execution (internal/replay).
	Recorder *replay.Log
}

// route is one direction of a filter table entry.
type route struct {
	to    *Link
	allow Filter
}

// Link is one gateway attachment: a member link (full stack on a segment)
// or a raw link (bare port on a backbone).
type Link struct {
	g       *Gateway
	segment can.NodeID   // member links only
	member  *stack.Stack // nil on raw links
	port    stack.Port   // transmit endpoint (raw attach, or the member stack's port)
	view    can.NodeSet  // member bootstrap view
	raw     bool
	routes  []route
}

// Stack returns the member stack of a member link (nil on raw links).
func (l *Link) Stack() *stack.Stack { return l.member }

// Segment returns the segment id of a member link.
func (l *Link) Segment() can.NodeID { return l.segment }

// Gateway bridges frames and federates membership across its links.
type Gateway struct {
	sched *sim.Scheduler
	cfg   Config

	links   []*Link
	members []*Link
	raws    []*Link

	fed    *federation.Core
	booted bool

	// Binding-owned alarm machinery for the federation core, mirroring the
	// stack binding: a lazy announce timer and a raw chasing scan event.
	annTimer *sim.Timer
	scanEv   sim.Event

	// onSite fans out fed-can.nty consumers in registration order.
	onSite []func(active, failed can.NodeSet)

	// Store-and-forward accounting.
	queued  int
	dropped int

	crashed bool

	// bufs is the fedStep command-buffer free-list (see stack.Stack.bufs).
	bufs []*proto.CommandBuf
}

// New creates a gateway; attach links with AddMemberLink/AddRawLink, wire
// filter tables with Forward, then Bootstrap.
func New(sched *sim.Scheduler, cfg Config) (*Gateway, error) {
	if !cfg.ID.Valid() {
		return nil, fmt.Errorf("gateway: invalid gateway id %d", cfg.ID)
	}
	if cfg.Queue == 0 {
		cfg.Queue = 32
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
// observer chained before the gateway's own frame snooping.
func (g *Gateway) AddMemberLink(m stack.Medium, segment, localID can.NodeID, view can.NodeSet, scfg stack.Config, hooks *stack.Hooks) (*Link, error) {
	if g.booted {
		return nil, fmt.Errorf("gateway: links must be attached before Bootstrap")
	}
	if !segment.Valid() {
		return nil, fmt.Errorf("gateway: invalid segment id %d", segment)
	}
	l := &Link{g: g, segment: segment, view: view}
	st, err := stack.New(g.sched, []stack.Medium{m}, localID, scfg, nil, g.memberHooks(l, hooks))
	if err != nil {
		return nil, err
	}
	l.member = st
	l.port = st.Ports[0]
	st.OnChange(func(ch membership.Change) {
		g.fedStep(proto.Event{Kind: proto.EvFedLocalView, Node: segment, View: ch.Active})
	})
	g.links = append(g.links, l)
	g.members = append(g.members, l)
	return l, nil
}

// AddRawLink attaches the gateway to a backbone medium as a bare port: no
// member stack, digests in and out, plus whatever the filter tables bridge.
func (g *Gateway) AddRawLink(m stack.Medium) (*Link, error) {
	if g.booted {
		return nil, fmt.Errorf("gateway: links must be attached before Bootstrap")
	}
	l := &Link{g: g, raw: true}
	l.port = m.Attach(g.cfg.ID)
	l.port.SetHandler(&rawHandler{g: g, l: l})
	g.links = append(g.links, l)
	g.raws = append(g.raws, l)
	return l, nil
}

// Forward installs a filter table entry: frames received on from that pass
// allow are queued for transmission on to.
func (g *Gateway) Forward(from, to *Link, allow Filter) {
	from.routes = append(from.routes, route{to: to, allow: allow})
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

// Dropped returns the number of frames the store-and-forward queue refused.
func (g *Gateway) Dropped() int { return g.dropped }

// Alive reports whether the gateway has not crashed.
func (g *Gateway) Alive() bool { return !g.crashed }

// Crash fail-silences the gateway on every link: member stacks and raw
// ports stop transmitting, timers stop, queued forwards are discarded.
func (g *Gateway) Crash() {
	if g.crashed {
		return
	}
	g.crashed = true
	for _, l := range g.members {
		l.member.Crash()
	}
	for _, l := range g.raws {
		l.port.Crash()
	}
	g.annTimer.Stop()
	g.scanEv.Cancel()
	g.scanEv = sim.Event{}
}

// memberHooks chains an optional user observer before the gateway's frame
// snooping on a member link.
func (g *Gateway) memberHooks(l *Link, user *stack.Hooks) *stack.Hooks {
	h := &stack.Hooks{}
	if user != nil {
		*h = *user
	}
	userInd := h.OnIndication
	h.OnIndication = func(node can.NodeID, f can.Frame, own bool) {
		if userInd != nil {
			userInd(node, f, own)
		}
		g.onLinkFrame(l, f, own)
	}
	return h
}

// rawHandler adapts a raw link's port indications.
type rawHandler struct {
	g *Gateway
	l *Link
}

func (h *rawHandler) OnFrame(f can.Frame, own bool) { h.g.onLinkFrame(h.l, f, own) }
func (h *rawHandler) OnConfirm(can.Frame)           {}
func (h *rawHandler) OnBusOff()                     {}

// onLinkFrame is the shared reception path of every link: federation
// digests feed the core, the filter tables decide what is bridged. Own
// transmissions are skipped — a forwarded frame is transmitted by this
// gateway on the target medium, so self-reception must not re-forward.
func (g *Gateway) onLinkFrame(l *Link, f can.Frame, own bool) {
	if own || g.crashed {
		return
	}
	if mid, err := can.DecodeMID(f.ID); err == nil && mid.Type == can.TypeFed && !f.RTR {
		g.fedStep(proto.Event{Kind: proto.EvDataInd, MID: mid}.WithPayload(f.Payload()))
	}
	for _, r := range l.routes {
		if r.allow(f) {
			g.enqueue(f, r.to)
		}
	}
}

// enqueue passes a frame through the bounded store-and-forward queue.
func (g *Gateway) enqueue(f can.Frame, to *Link) {
	if g.queued >= g.cfg.Queue {
		g.dropped++
		return
	}
	g.queued++
	g.sched.After(g.cfg.Latency, func() {
		g.queued--
		if g.crashed {
			return
		}
		_ = to.port.Request(f)
	})
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
			for _, l := range g.raws {
				_ = l.port.Request(f)
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
