package canely

import (
	"fmt"
	"time"

	"canely/internal/can"
	"canely/internal/fault"
	"canely/internal/gateway"
	"canely/internal/replay"
	"canely/internal/sim"
	"canely/internal/stack"
)

// FederationConfig parameterizes a simulated multi-segment CANELy
// federation: S independent segment buses, each running the full
// single-segment protocol stack of this package, bridged by gateways over
// one backbone bus that carries the hierarchical membership digests
// (internal/federation).
type FederationConfig struct {
	// Node is the per-segment parameterization: substrate, bit rate and the
	// protocol timing every node and every gateway member stack uses.
	// Node.Script, stochastic injection and DualMedia are ignored here —
	// federation faults are scripted through BackboneScript.
	Node Config

	// Segments is the number of segments (1..32 with redundant gateways,
	// 1..64 without: segment ids and gateway ids live in NodeSet space).
	Segments int
	// NodesPerSegment is the number of plain nodes per segment (ids 0..n-1
	// inside the segment; at most 60, ids 61/62 belong to the gateways).
	NodesPerSegment int
	// RedundantGateways attaches a second, backup gateway to every segment.
	// The backup's digests stay leader-suppressed while the primary lives,
	// and take over within 2*Tann of its failure.
	RedundantGateways bool

	// Tann and Tstale parameterize the federation layer (federation.Config);
	// zero values default to 10ms / 40ms.
	Tann   time.Duration
	Tstale time.Duration

	// BackboneScript optionally injects faults on the backbone medium,
	// behind fault.TagDigests: digest transmissions arrive tagged with the
	// segment they summarize, so a Match.Segments rule partitions one
	// segment off the backbone (and Sender-scoped CrashSenders rules crash
	// one gateway's backbone port).
	BackboneScript Injector

	// SegmentHooks, when set, supplies the layer-boundary hooks for one
	// segment's stacks (plain nodes and gateway member links), overriding
	// Node.Hooks. Node ids repeat across segments, so observers that need
	// segment-scoped logs (the equivalence harness) hook per segment.
	SegmentHooks func(seg can.NodeID) *Hooks

	// RecordFed captures every gateway's federation event/command streams
	// into a log retrievable with Federation.FedLog (replay.Verify-able).
	RecordFed bool
}

// DefaultFederationConfig returns a 4-segment, 4-nodes-per-segment
// federation over the default single-segment parameterization.
func DefaultFederationConfig() FederationConfig {
	return FederationConfig{
		Node:            DefaultConfig(),
		Segments:        4,
		NodesPerSegment: 4,
		Tann:            10 * time.Millisecond,
		Tstale:          40 * time.Millisecond,
	}
}

// Local member ids of the gateways inside each segment. Plain nodes use
// 0..NodesPerSegment-1, so the gateways sit at the top of the id space
// (lowest bus priority for their segment-local protocol traffic).
const (
	primaryGatewayMember = can.NodeID(62)
	backupGatewayMember  = can.NodeID(61)
)

// Federation is a simulated multi-segment CANELy system. Like Network it
// is single-goroutine and, for a given configuration and scripts, exactly
// deterministic on either substrate.
type Federation struct {
	cfg      FederationConfig
	sched    *sim.Scheduler
	backbone stack.Medium
	segMedia []stack.Medium
	nodes    [][]*stack.Stack     // [segment][node]
	gws      [][]*gateway.Gateway // [segment][0=primary,1=backup]
	fedLog   *replay.Log
}

// gatewayID is the federation-wide identity of a segment's idx-th gateway:
// the digest source, the suppression tiebreaker (primary below backup) and
// the backbone attach id.
func (c FederationConfig) gatewayID(seg, idx int) can.NodeID {
	if c.RedundantGateways {
		return can.NodeID(2*seg + idx)
	}
	return can.NodeID(seg)
}

// Validate checks the federation configuration.
func (c FederationConfig) Validate() error {
	if err := c.Node.Validate(); err != nil {
		return err
	}
	maxSegs := int(can.MaxNodes)
	if c.RedundantGateways {
		maxSegs = int(can.MaxNodes) / 2
	}
	if c.Segments < 1 || c.Segments > maxSegs {
		return fmt.Errorf("canely: %d segments outside 1..%d", c.Segments, maxSegs)
	}
	if c.NodesPerSegment < 1 || c.NodesPerSegment > int(backupGatewayMember) {
		return fmt.Errorf("canely: %d nodes per segment outside 1..%d",
			c.NodesPerSegment, int(backupGatewayMember))
	}
	return nil
}

// NewFederation builds the federation: all segment media, plain node
// stacks, gateways and the backbone, on one scheduler.
func NewFederation(cfg FederationConfig) *Federation {
	if cfg.Tann == 0 {
		cfg.Tann = 10 * time.Millisecond
	}
	if cfg.Tstale == 0 {
		cfg.Tstale = 40 * time.Millisecond
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("canely: invalid federation config: %v", err))
	}
	f := &Federation{cfg: cfg, sched: sim.NewScheduler()}
	// The federation runs untraced even on the bit-accurate substrate: at
	// 32 segments a global trace would dominate the run, and the
	// equivalence harness observes through Hooks, which work on both
	// substrates anyway.
	f.backbone = stack.NewMedium(f.sched, stack.MediumConfig{
		Substrate: cfg.Node.Substrate, Rate: cfg.Node.Rate,
		Injector: fault.TagDigests{Inner: cfg.BackboneScript},
	})
	if cfg.RecordFed {
		f.fedLog = replay.New()
	}
	scfg := cfg.Node.stackConfig()
	gateways := 1
	if cfg.RedundantGateways {
		gateways = 2
	}
	for s := 0; s < cfg.Segments; s++ {
		m := stack.NewMedium(f.sched, stack.MediumConfig{Substrate: cfg.Node.Substrate, Rate: cfg.Node.Rate})
		f.segMedia = append(f.segMedia, m)
		hooks := cfg.Node.Hooks
		if cfg.SegmentHooks != nil {
			hooks = cfg.SegmentHooks(can.NodeID(s))
		}
		view := f.SegmentMembers(s)
		var nodes []*stack.Stack
		for n := 0; n < cfg.NodesPerSegment; n++ {
			st, err := stack.New(f.sched, []stack.Medium{m}, can.NodeID(n), scfg, nil, hooks)
			if err != nil {
				panic(fmt.Sprintf("canely: %v", err))
			}
			nodes = append(nodes, st)
		}
		f.nodes = append(f.nodes, nodes)

		var gws []*gateway.Gateway
		for i := 0; i < gateways; i++ {
			g, err := gateway.New(f.sched, gateway.Config{
				ID: cfg.gatewayID(s, i), Tann: cfg.Tann, Tstale: cfg.Tstale,
				Recorder: f.fedLog,
			})
			if err != nil {
				panic(fmt.Sprintf("canely: %v", err))
			}
			member := primaryGatewayMember
			if i == 1 {
				member = backupGatewayMember
			}
			if err := g.AddMemberLink(m, can.NodeID(s), member, view, scfg, hooks); err != nil {
				panic(fmt.Sprintf("canely: %v", err))
			}
			if err := g.AddRawLink(f.backbone); err != nil {
				panic(fmt.Sprintf("canely: %v", err))
			}
			gws = append(gws, g)
		}
		f.gws = append(f.gws, gws)
	}
	return f
}

// SegmentMembers returns a segment's pre-agreed bootstrap view: its plain
// nodes plus its gateway member identities.
func (f *Federation) SegmentMembers(seg int) NodeSet {
	return f.cfg.SegmentMembers()
}

// SegmentMembers is the per-segment bootstrap view implied by the
// configuration (every segment starts identical).
func (c FederationConfig) SegmentMembers() NodeSet {
	var view NodeSet
	for n := 0; n < c.NodesPerSegment; n++ {
		view = view.Add(can.NodeID(n))
	}
	view = view.Add(primaryGatewayMember)
	if c.RedundantGateways {
		view = view.Add(backupGatewayMember)
	}
	return view
}

// Site returns the full site view: every configured segment.
func (f *Federation) Site() NodeSet {
	var site NodeSet
	for s := 0; s < f.cfg.Segments; s++ {
		site = site.Add(can.NodeID(s))
	}
	return site
}

// BootstrapAll installs the pre-agreed segment views at every node and the
// pre-agreed site view at every gateway, and starts all protocol
// machinery.
func (f *Federation) BootstrapAll() {
	f.bootstrap(func(int) NodeSet { return f.Site() })
}

// BootstrapCold installs the pre-agreed segment views at every node but
// seeds each gateway's site view with only its own segment, so the full
// site is assembled purely through digest exchange — the starting condition
// of the site-view convergence experiments.
func (f *Federation) BootstrapCold() {
	f.bootstrap(func(seg int) NodeSet { return MakeSet(can.NodeID(seg)) })
}

func (f *Federation) bootstrap(site func(seg int) NodeSet) {
	for s := range f.nodes {
		view := f.SegmentMembers(s)
		for _, st := range f.nodes[s] {
			st.Bootstrap(view)
		}
	}
	for s, gws := range f.gws {
		for _, g := range gws {
			if err := g.Bootstrap(site(s)); err != nil {
				panic(fmt.Sprintf("canely: %v", err))
			}
		}
	}
}

// Run advances the simulation by d of virtual time.
func (f *Federation) Run(d time.Duration) { f.sched.RunFor(d) }

// Now returns the current virtual time as an offset from the start.
func (f *Federation) Now() time.Duration { return time.Duration(f.sched.Now()) }

// Gateway returns a segment's idx-th gateway (0 = primary, 1 = backup).
func (f *Federation) Gateway(seg, idx int) *gateway.Gateway { return f.gws[seg][idx] }

// Gateways returns all gateways, segment-major.
func (f *Federation) Gateways() []*gateway.Gateway {
	var out []*gateway.Gateway
	for _, gws := range f.gws {
		out = append(out, gws...)
	}
	return out
}

// CrashSegment fail-silences every node and gateway of a segment — the
// whole-segment crash fault of the federation experiments.
func (f *Federation) CrashSegment(seg int) {
	for _, st := range f.nodes[seg] {
		st.Crash()
	}
	for _, g := range f.gws[seg] {
		g.Crash()
	}
}

// Scheduler exposes the simulation scheduler for scripting application
// events at virtual instants.
func (f *Federation) Scheduler() *sim.Scheduler { return f.sched }

// FedLog returns the recorded gateway federation-core streams, or nil
// unless RecordFed was set.
func (f *Federation) FedLog() *replay.Log { return f.fedLog }
