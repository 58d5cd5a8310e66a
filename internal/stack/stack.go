// Package stack makes the per-node layer architecture of the paper's
// Figure 5 explicit: a Medium abstraction over the simulated channel, a
// Port per (node, medium) attachment, and a Stack that composes the
// exposed controller interface, the CAN standard layer (with can-data.nty),
// the sans-I/O protocol cores (FDA, failure detection, RHA, site
// membership — internal/core) and the optional companion services (process
// groups over RELCAN, totally ordered broadcast, clock synchronization).
//
// The Stack is the runtime binding of the cores: it pumps frame
// indications and timer expiries into the composite core as proto.Events
// and executes the returned proto.Commands against the layer, the
// scheduler and the notification hooks. All protocol state lives in the
// cores; the binding owns only the alarm machinery (one scan event and two
// lazy timers per node), the notification fan-out and the optional event
// recorder (internal/replay).
//
// Two substrates implement Medium: the bit-time-accurate internal/bus
// simulator (full trace and per-type wire accounting — the diagnostic
// substrate) and internal/fastbus, a frame-level discrete-event substrate
// with identical MAC/LLC semantics but none of the diagnostic overhead —
// the Monte-Carlo campaign workhorse. Both resolve arbitration, wired-AND
// remote-frame clustering, exact frame durations and end-of-frame
// inconsistent omissions; a seeded run delivers the same frame sequence and
// reaches the same membership views on either.
//
// Every layer boundary carries a uniform hook point (Hooks), so experiments
// can observe the stack without reaching into protocol internals.
package stack

import (
	"fmt"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/canlayer"
	"canely/internal/clocksync"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/groups"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/edcan"
	"canely/internal/redundancy"
	"canely/internal/replay"
	"canely/internal/sim"
	"canely/internal/trace"
)

// Port is the per-node endpoint a Medium exposes: the exposed controller
// interface of Figure 4 (transmit request, abort, pending probes, the
// indication callback registration), crash and operational status (the
// redundancy.Port surface), and the fault-confinement state the facade
// reports.
type Port interface {
	redundancy.Port
	// State returns the fault-confinement state.
	State() bus.ControllerState
	// Counters returns (TEC, REC).
	Counters() (tec, rec int)
}

// Medium is one channel: nodes attach Ports to it, and it answers the wire
// statistics the experiments take their measurements from. Delivery and
// confirmation flow through the bus.Handler each Port's SetHandler
// installs.
type Medium interface {
	// Attach connects a new controller for the node. Attaching an id twice
	// panics.
	Attach(id can.NodeID) Port
	// Stats returns a snapshot of the accumulated wire statistics.
	Stats() bus.Stats
}

// Hooks is the uniform observation surface at the stack's layer
// boundaries. Every field is optional; a nil Hooks (or any nil field) costs
// nothing.
type Hooks struct {
	// OnIndication observes every frame indication entering the standard
	// layer (own transmissions included).
	OnIndication func(node can.NodeID, f can.Frame, own bool)
	// OnConfirm observes transmit confirmations at the same boundary.
	OnConfirm func(node can.NodeID, f can.Frame)
	// OnBusOff observes fault-confinement shutdown at the same boundary.
	OnBusOff func(node can.NodeID)
	// OnDataNty observes the can-data.nty primitive at the standard-layer ->
	// failure-detection boundary.
	OnDataNty func(node can.NodeID, mid can.MID)
	// OnFDANotify observes fda-can.nty (FDA -> detector boundary).
	OnFDANotify func(node, failed can.NodeID)
	// OnFDNotify observes fd-can.nty (detector -> membership boundary).
	OnFDNotify func(node, failed can.NodeID)
	// OnViewChange observes msh-can.nty (membership -> application
	// boundary).
	OnViewChange func(node can.NodeID, ch membership.Change)
}

// Config parameterizes one node's stack.
type Config struct {
	// FD parameterizes the failure-detection layer (Tb, Ttd).
	FD fd.Config
	// Membership parameterizes the RHA/site-membership layer.
	Membership membership.Config
	// J is the inconsistent omission degree bound shared by the
	// EDCAN-family broadcast services the stack can enable.
	J int
	// Recorder, when non-nil, captures this node's core event/command
	// streams for deterministic re-execution (internal/replay).
	Recorder *replay.Log
}

// Stack is one node's protocol stack, assembled bottom-up over one or two
// media. Fields are exported in layer order; the zero value is not usable —
// build one with New.
type Stack struct {
	sched *sim.Scheduler
	cfg   Config
	tr    *trace.Trace
	id    can.NodeID

	// Ports holds the per-medium attachments in medium order.
	Ports []Port
	// Ctrl is the exposed controller interface the standard layer drives
	// (through the hook interposer when hooks are set): Ports[0], or the
	// media-redundancy DualPort over both media.
	Ctrl redundancy.Port
	// Layer is the CAN standard layer with the can-data.nty extension.
	Layer *canlayer.Layer
	// Core is the composite sans-I/O protocol core this binding drives.
	Core *core.Node
	// FDA, Det, Msh and RHA alias the sub-cores of Core for diagnostics.
	FDA *fd.FDA
	Det *fd.Detector
	Msh *membership.Protocol
	RHA *membership.RHA

	// Binding-owned alarm machinery: the failure detector's scan event and
	// the lazy membership-cycle and RHA-termination timers.
	scanEv   sim.Event
	scanFire func()
	mshTimer *sim.Timer
	rhaTimer *sim.Timer

	// onChange fans out msh-can.nty consumers in registration order (the
	// boundary hook first, then services and the application).
	onChange []func(membership.Change)
	hooks    *Hooks

	// bufs is a free-list of command buffers for inject. A plain reusable
	// field would not do: executing a command stream can re-enter inject
	// (a CmdNotifyView consumer may call Join/Leave/FDStart), and the outer
	// stream must survive the nested step. Depth beyond 2 is rare, so the
	// list stays tiny and steady-state injects allocate nothing.
	bufs []*proto.CommandBuf

	// Optional companion services, nil until enabled.
	Groups  *groups.Service
	Ordered *edcan.Ordered
	Sync    *clocksync.Synchronizer
}

// New assembles a node's stack on the given media (one, or two for media
// redundancy). hooks may be nil.
func New(sched *sim.Scheduler, media []Medium, id can.NodeID, cfg Config, tr *trace.Trace, hooks *Hooks) (*Stack, error) {
	switch len(media) {
	case 1, 2:
	default:
		return nil, fmt.Errorf("stack: need one or two media, got %d", len(media))
	}
	st := &Stack{sched: sched, cfg: cfg, tr: tr, id: id, hooks: hooks}
	for _, m := range media {
		st.Ports = append(st.Ports, m.Attach(id))
	}
	st.Ctrl = st.Ports[0]
	if len(media) == 2 {
		st.Ctrl = redundancy.NewDualPort(sched, st.Ports[0], st.Ports[1])
	}
	var ctrl canlayer.Controller = st.Ctrl
	if hooks != nil {
		ctrl = &hookedController{Controller: ctrl, node: id, hooks: hooks}
	}
	st.Layer = canlayer.New(ctrl)
	cn, err := core.New(id, core.Config{FD: cfg.FD, Membership: cfg.Membership})
	if err != nil {
		return nil, err
	}
	st.Core = cn
	st.FDA, st.Det, st.Msh, st.RHA = cn.FDA, cn.Det, cn.Msh, cn.RHA
	if cfg.Recorder != nil {
		cfg.Recorder.Register(replay.NodeConfig{ID: id, Core: &core.Config{FD: cfg.FD, Membership: cfg.Membership}})
	}

	// Alarm machinery. The scan event is raw (cancel + reschedule chases
	// the earliest deadline); the cycle and termination alarms are lazy
	// timers.
	st.scanFire = func() {
		// Drop the handle: the scheduler recycles the fired event's slot
		// once this callback returns. Generation-checked handles make a
		// stale Cancel a no-op anyway, but clearing keeps the invariant
		// "scanEv names the pending scan or nothing" explicit.
		st.scanEv = sim.Event{}
		st.inject(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan})
	}
	st.mshTimer = sim.NewTimer(sched, func() {
		st.inject(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle})
	})
	st.rhaTimer = sim.NewTimer(sched, func() {
		st.inject(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerRHATerm})
	})

	// Event pumps, in the handler order of the layered implementation:
	// remote frames feed FDA/detector/membership, data notifications feed
	// detector/membership (with the boundary hook after them and before
	// delivery), data indications feed the RHA.
	st.Layer.HandleRTRInd(func(mid can.MID) {
		st.inject(proto.Event{Kind: proto.EvRTRInd, MID: mid})
	})
	st.Layer.HandleDataNty(func(mid can.MID) {
		st.inject(proto.Event{Kind: proto.EvDataNty, MID: mid})
	})
	if hooks != nil && hooks.OnDataNty != nil {
		fn := hooks.OnDataNty
		st.Layer.HandleDataNty(func(mid can.MID) { fn(id, mid) })
	}
	st.Layer.HandleDataInd(func(mid can.MID, data []byte) {
		st.inject(proto.Event{Kind: proto.EvDataInd, MID: mid}.WithPayload(data))
	})

	// The view-change boundary hook observes before services and the
	// application, mirroring its registration position in the layered
	// implementation.
	if hooks != nil && hooks.OnViewChange != nil {
		fn := hooks.OnViewChange
		st.onChange = append(st.onChange, func(ch membership.Change) { fn(id, ch) })
	}
	return st, nil
}

// inject pumps one event through the composite core, records it when a
// recorder is attached, and executes the command stream. The command buffer
// comes from the stack's free-list and returns to it afterwards; the
// recorder copies what it retains.
func (st *Stack) inject(ev proto.Event) {
	ev.At = st.sched.Now()
	buf := st.getBuf()
	st.Core.StepInto(ev, buf)
	if st.cfg.Recorder != nil {
		st.cfg.Recorder.Append(st.id, ev, buf.Commands())
	}
	st.exec(buf.Commands())
	st.putBuf(buf)
}

// getBuf pops a command buffer off the free-list (or grows the list).
func (st *Stack) getBuf() *proto.CommandBuf {
	if n := len(st.bufs); n > 0 {
		buf := st.bufs[n-1]
		st.bufs = st.bufs[:n-1]
		return buf
	}
	return new(proto.CommandBuf)
}

// putBuf resets a buffer and pushes it back for reuse.
func (st *Stack) putBuf(buf *proto.CommandBuf) {
	buf.Reset()
	st.bufs = append(st.bufs, buf)
}

// exec carries out a command stream against the layer, the alarm machinery
// and the notification consumers, in order.
func (st *Stack) exec(cmds []proto.Command) {
	for _, c := range cmds {
		switch c.Kind {
		case proto.CmdSendRTR:
			if c.UnlessPending && st.Layer.PendingEquivalentRTR(c.MID) {
				continue
			}
			// A request failure means the local controller died; the
			// protocols terminate locally and the node is about to be
			// detected.
			_ = st.Layer.RTRReq(c.MID)
		case proto.CmdSendData:
			_ = st.Layer.DataReq(c.MID, c.Payload())
		case proto.CmdAbort:
			st.Layer.AbortReq(c.MID)
		case proto.CmdSetTimer:
			switch c.Timer {
			case proto.TimerFDScan:
				st.scanEv.Cancel()
				st.scanEv = st.sched.After(c.Delay, st.scanFire)
			case proto.TimerMshCycle:
				st.mshTimer.Start(c.Delay)
			case proto.TimerRHATerm:
				st.rhaTimer.Start(c.Delay)
			}
		case proto.CmdCancelTimer:
			switch c.Timer {
			case proto.TimerFDScan:
				st.scanEv.Cancel()
				st.scanEv = sim.Event{}
			case proto.TimerMshCycle:
				st.mshTimer.Stop()
			case proto.TimerRHATerm:
				st.rhaTimer.Stop()
			}
		case proto.CmdTrace:
			if st.tr != nil {
				st.tr.Emit(c.TraceEvent(int(st.id)))
			}
		case proto.CmdNotifyView:
			ch := membership.Change{Active: c.Active, Failed: c.Failed, Left: c.Left}
			for _, fn := range st.onChange {
				fn(ch)
			}
		case proto.CmdFDANty:
			if st.hooks != nil && st.hooks.OnFDANotify != nil {
				st.hooks.OnFDANotify(st.id, c.Node)
			}
		case proto.CmdFDNty:
			if st.hooks != nil && st.hooks.OnFDNotify != nil {
				st.hooks.OnFDNotify(st.id, c.Node)
			}
		}
		// The remaining inter-core kinds (fda-req, fd-start, rha-req, ...)
		// were already routed by the composite core; here they are markers
		// with no binding-level effect.
	}
}

// Bootstrap installs a pre-agreed initial view at the membership core.
func (st *Stack) Bootstrap(view can.NodeSet) {
	st.inject(proto.Event{Kind: proto.EvBootstrap, View: view})
}

// Join requests integration of this node into the active site set.
func (st *Stack) Join() { st.inject(proto.Event{Kind: proto.EvJoin}) }

// Leave requests withdrawal of this node from the site membership view.
func (st *Stack) Leave() { st.inject(proto.Event{Kind: proto.EvLeave}) }

// OnChange registers a membership change consumer (msh-can.nty).
func (st *Stack) OnChange(fn func(membership.Change)) {
	st.onChange = append(st.onChange, fn)
}

// FDStart begins failure-detection surveillance of a node
// (fd-can.req(START, r)).
func (st *Stack) FDStart(r can.NodeID) {
	st.inject(proto.Event{Kind: proto.EvFDStart, Node: r})
}

// FDStop ends failure-detection surveillance of a node
// (fd-can.req(STOP, r)).
func (st *Stack) FDStop(r can.NodeID) {
	st.inject(proto.Event{Kind: proto.EvFDStop, Node: r})
}

// FDARequest invokes the failure-sign diffusion protocol directly
// (fda-can.req) — the detector does this on surveillance expiry; tests and
// experiments use it to exercise the FDA in isolation.
func (st *Stack) FDARequest(failed can.NodeID) {
	st.inject(proto.Event{Kind: proto.EvFDARequest, Node: failed})
}

// ID returns the node identity.
func (st *Stack) ID() can.NodeID { return st.id }

// Crash fail-silences the node on every attached medium.
func (st *Stack) Crash() { st.Ctrl.Crash() }

// Alive reports whether the node is operational on at least one medium.
func (st *Stack) Alive() bool { return st.Ctrl.Operational() }

// siteView adapts the stack to the groups service's site membership
// dependency.
type siteView struct{ st *Stack }

func (v siteView) View() can.NodeSet                   { return v.st.Msh.View() }
func (v siteView) OnChange(fn func(membership.Change)) { v.st.OnChange(fn) }

// EnableGroups starts the process-group membership service: registrations
// travel over a RELCAN reliable broadcast and group views are pruned by the
// site membership service.
func (st *Stack) EnableGroups() error {
	if st.Groups != nil {
		return fmt.Errorf("stack: groups already enabled on %v", st.id)
	}
	rel, err := edcan.NewRELCAN(st.sched, st.Layer, edcan.RELCANConfig{
		Timeout: 2 * st.cfg.FD.Ttd,
		J:       st.cfg.J,
	})
	if err != nil {
		return err
	}
	st.Groups = groups.New(rel, siteView{st}, st.id)
	return nil
}

// EnableOrdered starts the TOTCAN-style totally ordered broadcast service
// with the given accept-deadline offset.
func (st *Stack) EnableOrdered(delta time.Duration) error {
	if st.Ordered != nil {
		return fmt.Errorf("stack: ordered broadcast already enabled on %v", st.id)
	}
	ord, err := edcan.NewOrdered(st.sched, st.Layer, edcan.OrderedConfig{
		Delta: delta,
		J:     st.cfg.J,
	})
	if err != nil {
		return err
	}
	st.Ordered = ord
	return nil
}

// EnableClockSync starts the clock synchronization service. The master is
// the lowest node in the agreed membership view, so a master crash is
// healed by the membership service with no extra election.
func (st *Stack) EnableClockSync(drift float64, period time.Duration) error {
	if st.Sync != nil {
		return fmt.Errorf("stack: clock sync already enabled on %v", st.id)
	}
	clock := clocksync.NewClock(st.sched, drift, time.Microsecond)
	master := func() can.NodeID {
		ids := st.Msh.View().IDs()
		if len(ids) == 0 {
			return st.id // not yet integrated: act alone
		}
		return ids[0]
	}
	s, err := clocksync.New(st.sched, st.Layer, clock, master, clocksync.Config{Period: period})
	if err != nil {
		return err
	}
	st.Sync = s
	s.Start()
	return nil
}

// hookedController interposes the controller -> standard-layer boundary.
type hookedController struct {
	canlayer.Controller
	node  can.NodeID
	hooks *Hooks
}

// SetHandler wraps the layer's handler with the boundary hooks.
func (hc *hookedController) SetHandler(h bus.Handler) {
	hc.Controller.SetHandler(&hookHandler{inner: h, node: hc.node, hooks: hc.hooks})
}

type hookHandler struct {
	inner bus.Handler
	node  can.NodeID
	hooks *Hooks
}

func (h *hookHandler) OnFrame(f can.Frame, own bool) {
	if fn := h.hooks.OnIndication; fn != nil {
		fn(h.node, f, own)
	}
	h.inner.OnFrame(f, own)
}

func (h *hookHandler) OnConfirm(f can.Frame) {
	if fn := h.hooks.OnConfirm; fn != nil {
		fn(h.node, f)
	}
	h.inner.OnConfirm(f)
}

func (h *hookHandler) OnBusOff() {
	if fn := h.hooks.OnBusOff; fn != nil {
		fn(h.node)
	}
	h.inner.OnBusOff()
}
