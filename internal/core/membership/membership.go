package membership

import (
	"fmt"
	"hash/maphash"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
)

// Config parameterizes the site membership protocol (Figure 9).
type Config struct {
	// Tm is the membership cycle period.
	Tm time.Duration
	// TjoinWait is the maximum join wait delay armed when a node requests
	// integration; it must be much longer than Tm (footnote 9). If it
	// expires with no full member active, the joiners bootstrap a view
	// among themselves.
	TjoinWait time.Duration
	// RHA configures the reception history agreement micro-protocol.
	RHA RHAConfig
	// RHAEveryCycle disables the bandwidth-saving skip of Figure 9 line
	// s22: the RHA micro-protocol then runs every membership cycle even
	// with no pending join/leave requests. This exists purely for the
	// ablation benchmarks that quantify the skip's saving.
	RHAEveryCycle bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tm <= 0 {
		return fmt.Errorf("membership: cycle period Tm must be positive, got %v", c.Tm)
	}
	if c.TjoinWait <= c.Tm {
		return fmt.Errorf("membership: join wait %v must exceed the cycle period %v", c.TjoinWait, c.Tm)
	}
	if c.RHA.Trha >= c.Tm {
		return fmt.Errorf("membership: RHA termination %v must be shorter than the cycle period %v", c.RHA.Trha, c.Tm)
	}
	return c.RHA.Validate()
}

// Change is a membership change notification (msh-can.nty): the set of
// active sites and the set of failed nodes being reported.
type Change struct {
	Active can.NodeSet
	Failed can.NodeSet
	// Left reports the local node's own successful withdrawal: the final
	// notification a leaving node receives.
	Left bool
}

// Protocol is the site membership protocol core at one node. It
// consistently maintains Rf, the site membership view, across node crash
// failures (folded in from the companion failure detection service) and
// node join/leave events (agreed through the RHA micro-protocol).
//
// The core is sans-I/O: it consumes proto.Events and emits proto.Commands.
// Interactions with the companion cores travel as command kinds — CmdFDStart
// and CmdFDStop toward the failure detector, CmdRHARequest toward the RHA —
// routed by the composite core (internal/core) at their position in the
// command stream.
type Protocol struct {
	cfg   Config
	local can.NodeID

	// Protocol data sets (Figure 9 line i01).
	rf     can.NodeSet // site membership view
	rj     can.NodeSet // nodes in a joining process
	rjPrev can.NodeSet // joiners carried from the previous cycle (footnote 10)
	rl     can.NodeSet // nodes requesting withdrawal
	fset   can.NodeSet // crash failures detected this cycle

	// Cycles counts membership cycle completions (diagnostics).
	Cycles int
	left   bool

	// sawActivity records evidence of active full members observed while
	// the local node is not integrated (RHA executions, life-signs,
	// application traffic). It gates the cold-start bootstrap: a joining
	// node whose join wait elapsed retries the join when full members are
	// demonstrably active, instead of bootstrapping a spurious singleton
	// view. The paper's pseudocode (line s18) assumes the timer can only
	// expire at a non-integrated node when "no full-member is active";
	// this flag is what makes that assumption checkable.
	sawActivity bool
}

// New creates the membership protocol core for the given node.
func New(local can.NodeID, cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !local.Valid() {
		return nil, fmt.Errorf("membership: invalid local node id %d", local)
	}
	return &Protocol{cfg: cfg, local: local}, nil
}

// Clone returns an independent deep copy of the core.
func (p *Protocol) Clone() *Protocol {
	c := *p
	return &c
}

// Quiescent reports that no membership work is pending: no join, leave or
// failure residue awaits the next cycle, and no stale join request is
// carried over. From a quiescent state an idle cycle re-arms the timer and
// bumps the diagnostic counter without touching the view. The exploration
// engine's settle shortcut keys on it.
func (p *Protocol) Quiescent() bool {
	return p.rj.Empty() && p.rjPrev.Empty() && p.rl.Empty() && p.fset.Empty()
}

// SharedSets: the sets of Figure 7 line i04 the RHA core reads live.
func (p *Protocol) FullMembers() can.NodeSet { return p.rf }

// Joining returns Rj (see SharedSets).
func (p *Protocol) Joining() can.NodeSet { return p.rj }

// Leaving returns Rl (see SharedSets).
func (p *Protocol) Leaving() can.NodeSet { return p.rl }

var _ SharedSets = (*Protocol)(nil)

// View returns Rf, the current site membership view.
func (p *Protocol) View() can.NodeSet { return p.rf }

// Member reports whether the local node is currently a full member.
func (p *Protocol) Member() bool { return p.rf.Contains(p.local) }

// Fingerprint writes the protocol's complete mutable state into h: the
// five protocol data sets of Figure 9 plus the cycle counter and the two
// boolean latches.
func (p *Protocol) Fingerprint(h *maphash.Hash) {
	proto.HashU64(h, uint64(p.local))
	proto.HashU64(h, uint64(p.rf))
	proto.HashU64(h, uint64(p.rj))
	proto.HashU64(h, uint64(p.rjPrev))
	proto.HashU64(h, uint64(p.rl))
	proto.HashU64(h, uint64(p.fset))
	proto.HashU64(h, uint64(p.Cycles))
	proto.HashBool(h, p.left)
	proto.HashBool(h, p.sawActivity)
}

// StepInto consumes one event, appending the resulting commands to buf.
func (p *Protocol) StepInto(ev proto.Event, buf *proto.CommandBuf) {
	switch ev.Kind {
	case proto.EvBootstrap:
		p.bootstrap(ev.View, buf)
	case proto.EvJoin:
		p.join(buf)
	case proto.EvLeave:
		p.leave(buf)
	case proto.EvRTRInd:
		p.onRTRInd(ev.MID)
	case proto.EvDataNty:
		p.onDataNty(ev.MID)
	case proto.EvFDNty:
		p.onFDNty(ev.Node, buf)
	case proto.EvTimerFired:
		if ev.Timer == proto.TimerMshCycle {
			p.cycle(true, buf)
		}
	case proto.EvRHAInit:
		// Resynchronize the membership cycle when an execution of the RHA
		// micro-protocol starts (line s17, first disjunct).
		if !p.rf.Contains(p.local) {
			p.sawActivity = true
		}
		p.cycle(false, buf)
	case proto.EvRHAEnd:
		p.onRHAEnd(ev.View, buf)
	}
}

// bootstrap installs a pre-agreed initial view, starts the membership cycle
// and begins failure-detection surveillance of every member. The paper
// describes steady-state operation; bootstrapping with a static initial
// configuration is the standard way such systems come up (the alternative —
// concurrent joins onto an empty bus — also works, via Join).
func (p *Protocol) bootstrap(view can.NodeSet, buf *proto.CommandBuf) {
	if !view.Contains(p.local) {
		panic(fmt.Sprintf("membership: bootstrap view %v omits local node %v", view, p.local))
	}
	p.rf = view
	buf.Put(proto.SetTimer(proto.TimerMshCycle, p.cfg.Tm))
	for s := view; !s.Empty(); {
		r := s.Lowest()
		s = s.Remove(r)
		buf.Put(proto.FDStart(r))
	}
}

// join requests integration of the local node into the set of active sites
// (msh-can.req(JOIN), lines s00–s03).
func (p *Protocol) join(buf *proto.CommandBuf) {
	if p.rf.Contains(p.local) {
		return
	}
	p.left = false
	p.sawActivity = false
	buf.Put(proto.SetTimer(proto.TimerMshCycle, p.cfg.TjoinWait))
	buf.Put(proto.SendRTR(can.JoinSign(p.local)))
	buf.Put(proto.TraceJoinRequested())
}

// leave requests withdrawal of the local node from the site membership
// view (msh-can.req(LEAVE), lines s07–s09).
func (p *Protocol) leave(buf *proto.CommandBuf) {
	if !p.rf.Contains(p.local) {
		return
	}
	buf.Put(proto.SendRTR(can.LeaveSign(p.local)))
	buf.Put(proto.TraceLeaveRequested())
}

// onRTRInd collects join/leave requests (lines s04–s06, s10–s12). Local
// and remote requests are handled identically: both arrive through the
// bus, own transmissions included.
func (p *Protocol) onRTRInd(mid can.MID) {
	switch mid.Type {
	case can.TypeJoin:
		p.rj = p.rj.Add(can.NodeID(mid.Param))
	case can.TypeLeave:
		p.rl = p.rl.Add(can.NodeID(mid.Param))
	case can.TypeELS:
		// A life-sign proves a full member is active.
		if !p.rf.Contains(p.local) && can.NodeID(mid.Param) != p.local {
			p.sawActivity = true
		}
	}
}

// onDataNty observes application traffic from other nodes as evidence of
// active members while the local node is not yet integrated.
func (p *Protocol) onDataNty(mid can.MID) {
	if mid.Type == can.TypeData && !p.rf.Contains(p.local) && mid.Src != p.local {
		p.sawActivity = true
	}
}

// onFDNty folds a consistently-signalled node crash into the protocol
// (lines s13–s16): the failure is accumulated for the cycle's view update
// and a membership change is notified immediately.
func (p *Protocol) onFDNty(r can.NodeID, buf *proto.CommandBuf) {
	if !r.Valid() {
		return
	}
	p.fset = p.fset.Add(r)
	p.changeNty(p.rf.Diff(p.fset), can.MakeSet(r), buf)
}

// cycle implements lines s17–s27; timerExpired distinguishes the cycle
// timer disjunct of line s17 from the RHA-init disjunct.
func (p *Protocol) cycle(timerExpired bool, buf *proto.CommandBuf) {
	if p.left {
		return
	}
	if timerExpired && !p.rf.Contains(p.local) {
		if p.sawActivity {
			// Full members are demonstrably active but our join did not
			// integrate (e.g. the JOIN frame was inconsistently omitted at
			// some members, or we were expelled after an inconsistent
			// failure): retry the join rather than bootstrapping a
			// spurious parallel view.
			p.sawActivity = false
			buf.Put(proto.SetTimer(proto.TimerMshCycle, p.cfg.TjoinWait))
			buf.Put(proto.SendRTR(can.JoinSign(p.local)))
			buf.Put(proto.TraceJoinRetried())
			return
		}
		// The join wait elapsed with no full member active: the joiners
		// bootstrap the view among themselves (lines s18–s20).
		p.rf = p.rj
	}
	buf.Put(proto.SetTimer(proto.TimerMshCycle, p.cfg.Tm))
	p.Cycles++
	if !p.rj.Empty() || !p.rl.Empty() || p.cfg.RHAEveryCycle {
		buf.Put(proto.RHARequest())
	} else {
		p.viewProc(p.rf, buf)
	}
}

// onRHAEnd applies the agreed reception history vector (lines s28–s34).
func (p *Protocol) onRHAEnd(rhv can.NodeSet, buf *proto.CommandBuf) {
	old := p.rf
	wasMember := old.Contains(p.local)
	p.viewProc(rhv, buf)
	joinersIn := !p.rj.Intersect(p.rf).Empty()
	leaversOut := !p.rl.Diff(p.rf).Empty()
	if joinersIn || leaversOut {
		p.changeNty(p.rf, can.EmptySet, buf)
	}
	p.dataProc(wasMember, p.rf.Diff(old), buf)
}

// viewProc implements msh-view-proc (lines a00–a02): the new view is the
// agreed set minus the failures detected during the cycle.
func (p *Protocol) viewProc(rw can.NodeSet, buf *proto.CommandBuf) {
	old := p.rf
	p.rf = rw.Diff(p.fset)
	p.fset = can.EmptySet
	if p.rf != old {
		buf.Put(proto.TraceViewChange(old, p.rf))
	}
}

// dataProc implements msh-data-proc (lines a03–a09): start failure
// detection for integrated joiners and every node that (re)entered the
// agreed view, expire stale join requests after two cycles (footnote 10),
// stop surveillance of withdrawn nodes.
//
// entered is Rf − Rf_old: the nodes this view change admitted. Surveillance
// must cover them even when they never filed a join request — an agreed
// vector built from a peer's not-yet-folded Rf can readmit a node whose
// failure this node already folded, and without re-monitoring (and without
// resetting the FDA diffusion counters) such a resurrected node could never
// be expelled again: the stale counters would swallow the fresh
// failure-sign request. The interleaving explorer finds exactly this
// divergence when a failure agreement races the RHA termination alarms.
func (p *Protocol) dataProc(wasMember bool, entered can.NodeSet, buf *proto.CommandBuf) {
	for s := entered; !s.Empty(); {
		r := s.Lowest()
		s = s.Remove(r)
		buf.Put(proto.FDAForget(r))
	}
	toStart := p.rj.Intersect(p.rf).Union(entered)
	if !wasMember && p.rf.Contains(p.local) {
		// The local node just became a member: begin surveillance of the
		// entire view (the paper omits this detail; existing members
		// already monitor each other, the newcomer must catch up).
		toStart = p.rf
	}
	for s := toStart; !s.Empty(); {
		r := s.Lowest()
		s = s.Remove(r)
		buf.Put(proto.FDStart(r))
	}
	// A join request that failed to integrate (inconsistent reception of
	// the JOIN frame at some members) is retried for one further cycle and
	// then dropped, so Rj cannot grow without bound.
	p.rj = p.rj.Diff(p.rf).Diff(p.rjPrev)
	p.rjPrev = p.rj
	for s := p.rl.Diff(p.rf); !s.Empty(); {
		r := s.Lowest()
		s = s.Remove(r)
		buf.Put(proto.FDStop(r))
	}
	p.rl = p.rl.Intersect(p.rf)
}

// changeNty implements msh-chg-nty (lines a10–a18): full members receive
// the change; a node whose withdrawal completed receives its final
// notification and stops cycling.
func (p *Protocol) changeNty(rw, fw can.NodeSet, buf *proto.CommandBuf) {
	switch {
	case p.rf.Contains(p.local):
		buf.Put(proto.NotifyView(rw, fw, false))
	case p.rl.Contains(p.local):
		p.left = true
		// The node is out: stop cycling, stop signalling activity (the
		// local ELS generator) and deliver the final notification.
		buf.Put(proto.CancelTimer(proto.TimerMshCycle))
		buf.Put(proto.FDStop(p.local))
		buf.Put(proto.NotifyView(p.rf, can.MakeSet(p.local), true))
	}
}
