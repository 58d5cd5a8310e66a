package rt

import (
	"fmt"
	"time"

	"canely/internal/can"
	"canely/internal/gateway"
	"canely/internal/replay"
	"canely/internal/stack"
	"canely/internal/wire"
)

// GatewayConfig parameterizes one live federation gateway.
type GatewayConfig struct {
	// ID is the federation-wide gateway identity: the digest source and
	// the identity of the raw digest link on every broker. It must not
	// collide with any plain node id on those brokers.
	ID can.NodeID
	// Member is the gateway's member identity inside each segment (the
	// same local id on every broker; segment id spaces are independent).
	Member can.NodeID
	// Brokers lists one broker address per segment, in segment order.
	Brokers []string
	// Segments names the segment each broker emulates; nil defaults to
	// 0..len(Brokers)-1.
	Segments []can.NodeID
	// Views are the pre-agreed per-segment bootstrap views, parallel to
	// Brokers; each must include Member.
	Views []can.NodeSet
	// Stack parameterizes the member stacks (FD, membership, J).
	Stack stack.Config
	// Tann and Tstale parameterize the federation layer.
	Tann, Tstale time.Duration
	// Rate, when non-zero, asserts the brokers' signalling rate.
	Rate can.BitRate
	// Record captures the federation core's event/command streams
	// (EventLog).
	Record bool
	// Dial tunes connection establishment; Addr, Rate and Role are
	// overridden per connection.
	Dial DialConfig
}

// GatewayNode is one live federation gateway: a gateway.Gateway dual-homed
// (or more) over broker connections — per segment, a full member stack on
// one connection plus a raw digest link on a second — driven by wall-clock
// timers on a dedicated Loop, exactly like Node drives its stack.
//
// Exported methods are goroutine-safe; they must not be called from
// protocol callbacks (those already run on the loop).
type GatewayNode struct {
	loop     *Loop
	gw       *gateway.Gateway
	members  []*Medium
	raws     []*Medium
	segments []can.NodeID
	log      *replay.Log
}

// StartGateway dials every broker twice (member stack + raw digest link),
// assembles the gateway and starts its event loop. The returned gateway is
// quiescent until Bootstrap.
func StartGateway(cfg GatewayConfig) (*GatewayNode, error) {
	if len(cfg.Brokers) == 0 {
		return nil, fmt.Errorf("rt: no broker addresses")
	}
	if cfg.Segments == nil {
		for i := range cfg.Brokers {
			cfg.Segments = append(cfg.Segments, can.NodeID(i))
		}
	}
	if len(cfg.Segments) != len(cfg.Brokers) || len(cfg.Views) != len(cfg.Brokers) {
		return nil, fmt.Errorf("rt: %d brokers need %d segments and views, have %d and %d",
			len(cfg.Brokers), len(cfg.Brokers), len(cfg.Segments), len(cfg.Views))
	}
	loop := StartLoop()
	g := &GatewayNode{loop: loop, segments: cfg.Segments}
	fail := func(err error) (*GatewayNode, error) {
		for _, m := range g.members {
			m.Close()
		}
		for _, m := range g.raws {
			m.Close()
		}
		loop.Close()
		return nil, err
	}

	for _, addr := range cfg.Brokers {
		dc := cfg.Dial
		dc.Addr = addr
		dc.Rate = cfg.Rate
		dc.Role = wire.RoleNode
		member, err := DialMedium(loop, cfg.Member, dc)
		if err != nil {
			return fail(err)
		}
		g.members = append(g.members, member)
		dc.Role = wire.RoleGateway
		raw, err := DialMedium(loop, cfg.ID, dc)
		if err != nil {
			return fail(err)
		}
		g.raws = append(g.raws, raw)
	}

	if cfg.Record {
		g.log = replay.New()
	}
	var buildErr error
	if !loop.Call(func() {
		g.gw, buildErr = gateway.New(loop.Scheduler(), gateway.Config{
			ID: cfg.ID, Tann: cfg.Tann, Tstale: cfg.Tstale, Recorder: g.log,
		})
		if buildErr != nil {
			return
		}
		for i := range cfg.Brokers {
			buildErr = g.gw.AddMemberLink(g.members[i], cfg.Segments[i], cfg.Member,
				cfg.Views[i], cfg.Stack, nil)
			if buildErr != nil {
				return
			}
			if buildErr = g.gw.AddRawLink(g.raws[i]); buildErr != nil {
				return
			}
		}
		// Every site transition is pushed to all brokers for observability.
		g.gw.OnSiteChange(func(active, _ can.NodeSet) {
			for i, raw := range g.raws {
				raw.PushDigest(g.segments[i], active)
			}
		})
	}) {
		buildErr = fmt.Errorf("rt: loop closed during gateway assembly")
	}
	if buildErr != nil {
		return fail(buildErr)
	}
	return g, nil
}

// Loop returns the gateway's event loop.
func (g *GatewayNode) Loop() *Loop { return g.loop }

// Gateway returns the underlying gateway. It must only be touched from the
// loop goroutine.
func (g *GatewayNode) Gateway() *gateway.Gateway { return g.gw }

// ID returns the federation-wide gateway identity.
func (g *GatewayNode) ID() can.NodeID { return g.gw.ID() }

// Bootstrap installs the pre-agreed member views and the pre-agreed
// initial site view, and starts the protocol machinery.
func (g *GatewayNode) Bootstrap(site can.NodeSet) error {
	var err error
	g.loop.Call(func() {
		if err = g.gw.Bootstrap(site); err != nil {
			return
		}
		for i, raw := range g.raws {
			raw.PushDigest(g.segments[i], g.gw.SiteView())
		}
	})
	return err
}

// SiteView returns the gateway's current cross-segment site view.
func (g *GatewayNode) SiteView() can.NodeSet {
	var v can.NodeSet
	g.loop.Call(func() { v = g.gw.SiteView() })
	return v
}

// Members returns the gateway's last known membership view of a segment.
func (g *GatewayNode) Members(seg can.NodeID) can.NodeSet {
	var v can.NodeSet
	g.loop.Call(func() { v = g.gw.Members(seg) })
	return v
}

// OnSiteChange registers a site view consumer. The callback runs on the
// loop goroutine.
func (g *GatewayNode) OnSiteChange(fn func(active, failed can.NodeSet)) {
	g.loop.Call(func() { g.gw.OnSiteChange(fn) })
}

// Alive reports whether the gateway has not crashed.
func (g *GatewayNode) Alive() bool {
	var ok bool
	g.loop.Call(func() { ok = g.gw.Alive() })
	return ok
}

// Crash fail-silences the gateway on every link.
func (g *GatewayNode) Crash() { g.loop.Call(g.gw.Crash) }

// EventLog returns the recorded federation event/command log (nil unless
// GatewayConfig.Record). Read it only after Close.
func (g *GatewayNode) EventLog() *replay.Log { return g.log }

// Close stops the gateway: media torn down, loop stopped. Protocol state
// remains readable through Gateway afterwards.
func (g *GatewayNode) Close() {
	for _, m := range g.members {
		m.Close()
	}
	for _, m := range g.raws {
		m.Close()
	}
	g.loop.Close()
}
