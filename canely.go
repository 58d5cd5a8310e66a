// Package canely is a faithful, simulation-backed implementation of the
// CANELy (CAN Enhanced Layer) node failure detection and site membership
// services described in:
//
//	J. Rufino, P. Veríssimo, G. Arroz. "Node Failure Detection and
//	Membership in CANELy". DSN 2003.
//
// The package assembles, per node, the full protocol stack of the paper's
// Figure 5 — CAN standard layer (with the can-data.nty extension), the FDA
// and RHA micro-protocols, the node failure detection protocol and the site
// membership protocol — through internal/stack, over one of two pluggable
// simulation substrates (Config.Substrate):
//
//   - SubstrateBitAccurate (default): the internal/bus simulator, with
//     bit-time-accurate wire accounting, a full structured event trace and
//     per-message-type occupancy statistics — the diagnostic substrate;
//   - SubstrateFast: the internal/fastbus frame-level simulator, with
//     identical MAC/LLC semantics (arbitration, wired-AND clustering, exact
//     frame durations, inconsistent omissions, fault confinement) but no
//     trace — roughly an order of magnitude more campaign runs per second.
//
// A seeded run delivers the same frame sequence and reaches the same
// membership views on either substrate (see the equivalence tests).
//
// # Quick start
//
//	net := canely.NewNetwork(canely.DefaultConfig(), 4)
//	net.BootstrapAll()                    // pre-agreed initial view
//	net.Run(100 * time.Millisecond)       // steady state
//	net.Node(2).Crash()                   // kill a node
//	net.Run(100 * time.Millisecond)
//	view := net.Node(0).View()            // {n00,n01,n03}
//
// All time is virtual: a Network is single-threaded and deterministic for a
// given seed and fault script, which makes every experiment in this
// repository exactly reproducible.
package canely

import (
	"fmt"
	"sync/atomic"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/groups"
	"canely/internal/core/membership"
	"canely/internal/fault"
	"canely/internal/replay"
	"canely/internal/sim"
	"canely/internal/stack"
	"canely/internal/trace"
)

// Re-exported identity and set types: the public API vocabulary.
type (
	// NodeID identifies a node (site); valid values are 0..63.
	NodeID = can.NodeID
	// NodeSet is a set of nodes: membership views, failed sets, RHVs.
	NodeSet = can.NodeSet
	// Change is a membership change notification (msh-can.nty).
	Change = membership.Change
	// BitRate is the bus signalling rate in bits per second.
	BitRate = can.BitRate
	// Injector decides per-transmission fault injection.
	Injector = fault.Injector
	// BusStats aggregates wire occupancy and outcome counters.
	BusStats = bus.Stats
	// GroupID names a process group.
	GroupID = groups.GroupID
	// GroupChange is a process-group view change notification.
	GroupChange = groups.Change
	// Substrate selects the simulation substrate (see Config.Substrate).
	Substrate = stack.Substrate
	// Hooks is the uniform layer-boundary observation surface of the
	// per-node stack (see Config.Hooks).
	Hooks = stack.Hooks
)

// Substrate values for Config.Substrate.
const (
	// SubstrateBitAccurate runs on the bit-time-accurate bus simulator with
	// full tracing — the diagnostic substrate, and the zero-value default.
	SubstrateBitAccurate = stack.BitAccurate
	// SubstrateFast runs on the frame-level fastbus simulator: identical
	// semantics and timing, no trace, much faster Monte-Carlo campaigns.
	SubstrateFast = stack.Fast
)

// ParseSubstrate parses a -substrate CLI flag value ("bit" or "fast").
func ParseSubstrate(v string) (Substrate, error) { return stack.ParseSubstrate(v) }

// MakeSet builds a NodeSet from ids.
func MakeSet(ids ...NodeID) NodeSet { return can.MakeSet(ids...) }

// Config parameterizes a CANELy network.
type Config struct {
	// Rate is the bus bit rate (default 1 Mbit/s).
	Rate BitRate
	// Seed drives all stochastic behaviour (fault injection, traffic
	// jitter); runs with equal seeds are identical.
	Seed int64

	// Substrate selects the simulation substrate: SubstrateBitAccurate
	// (default; full trace) or SubstrateFast (no trace, fastest campaigns).
	// The protocol stack and its outcomes are identical on both.
	Substrate Substrate

	// Tb is the heartbeat period: the maximum interval between consecutive
	// life-sign transmit requests at a node.
	Tb time.Duration
	// Ttd is the bound assumed for the network message transmission delay.
	Ttd time.Duration
	// Tm is the membership cycle period.
	Tm time.Duration
	// TjoinWait is the maximum join wait delay (>> Tm).
	TjoinWait time.Duration
	// Trha is the RHA maximum termination time (< Tm).
	Trha time.Duration
	// J is the inconsistent omission degree bound (LCAN4).
	J int
	// K is the omission degree bound (MCAN3) enforced on stochastic
	// injection per reference interval.
	K int

	// PCorrupt and PInconsistent enable background stochastic fault
	// injection at the given per-transmission probabilities (bounded by K
	// and J per OmissionInterval).
	PCorrupt      float64
	PInconsistent float64
	// OmissionInterval is the reference interval for the K and J bounds.
	OmissionInterval time.Duration

	// Script optionally overlays deterministic scripted faults; scripted
	// decisions take precedence over stochastic ones.
	Script Injector

	// Hooks optionally observes every node's stack at its layer
	// boundaries: frame indications and confirmations entering the
	// standard layer, can-data.nty, fda-can.nty, fd-can.nty and membership
	// view changes. The same Hooks value serves all nodes; callbacks carry
	// the node identity. Substrate-independent — the equivalence tests are
	// built on it.
	Hooks *Hooks

	// RHAEveryCycle disables the Figure 9 line s22 bandwidth optimization
	// (skipping RHA when no join/leave is pending). Ablation knob only.
	RHAEveryCycle bool

	// Record enables capture of every node's core event/command streams
	// into an event log retrievable with Network.EventLog — the input to
	// deterministic replay verification (internal/replay, canelysim
	// -record/-replay).
	Record bool

	// DualMedia enables the CANELy media redundancy scheme ([17]): every
	// node drives two replicated buses and passes up the first copy of each
	// frame either one carries, so a single-medium partition or jam never
	// partitions the network. Script and the stochastic injector apply to
	// medium A; medium B is fault-free. Both media use Config.Substrate.
	DualMedia bool

	// Scheduler, when non-nil, is Reset and reused as the network's event
	// scheduler instead of allocating a fresh one. Campaign workers pool a
	// scheduler per goroutine this way, so steady-state run churn reuses
	// one warm arena instead of regrowing heap and slot storage every run.
	// The network takes ownership for its lifetime: do not share one
	// scheduler between two live networks. Behaviour is identical either
	// way — a Reset scheduler is indistinguishable from a fresh one.
	Scheduler *sim.Scheduler
}

// DefaultConfig returns the parameterization used throughout the paper's
// operating envelope: 1 Mbit/s, Tb = 10 ms, Tm = 50 ms, j = 2.
func DefaultConfig() Config {
	return Config{
		Rate:             can.Rate1Mbps,
		Seed:             1,
		Tb:               10 * time.Millisecond,
		Ttd:              2 * time.Millisecond,
		Tm:               50 * time.Millisecond,
		TjoinWait:        120 * time.Millisecond,
		Trha:             5 * time.Millisecond,
		J:                2,
		K:                4,
		OmissionInterval: 100 * time.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("canely: bit rate must be positive")
	}
	fdCfg := fd.Config{Tb: c.Tb, Ttd: c.Ttd}
	if err := fdCfg.Validate(); err != nil {
		return err
	}
	mshCfg := membership.Config{
		Tm:        c.Tm,
		TjoinWait: c.TjoinWait,
		RHA:       membership.RHAConfig{Trha: c.Trha, J: c.J},
	}
	return mshCfg.Validate()
}

// DetectionLatencyBound returns the worst-case crash-to-notification
// latency under this configuration.
func (c Config) DetectionLatencyBound() time.Duration {
	return fd.Config{Tb: c.Tb, Ttd: c.Ttd}.DetectionLatency()
}

// stackConfig translates the network configuration to the per-node stack
// parameterization.
func (c Config) stackConfig() stack.Config {
	return stack.Config{
		FD: fd.Config{Tb: c.Tb, Ttd: c.Ttd},
		Membership: membership.Config{
			Tm:            c.Tm,
			TjoinWait:     c.TjoinWait,
			RHA:           membership.RHAConfig{Trha: c.Trha, J: c.J},
			RHAEveryCycle: c.RHAEveryCycle,
		},
		J: c.J,
	}
}

// Network is a simulated CANELy system: one medium (or two replicated
// media) plus a set of nodes, each running the full protocol stack.
//
// A Network is single-goroutine: it must never be entered from two
// goroutines at once (see guard.go). Campaigns parallelize by building one
// Network per run inside each worker, never by sharing an instance.
type Network struct {
	cfg     Config
	sched   *sim.Scheduler
	medium  stack.Medium
	mediumB stack.Medium // second medium when cfg.DualMedia
	tr      *trace.Trace
	rng     *sim.RNG
	nodes   map[NodeID]*Node
	order   []NodeID
	log     *replay.Log  // non-nil when cfg.Record
	busy    atomic.Int32 // concurrent-use guard (see guard.go)
}

// NewNetwork builds a network with nodes 0..n-1 attached. Additional nodes
// can be added with AddNode before the simulation starts.
func NewNetwork(cfg Config, n int) *Network {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("canely: invalid config: %v", err))
	}
	sched := cfg.Scheduler
	if sched != nil {
		sched.Reset()
	} else {
		sched = sim.NewScheduler()
	}
	rng := sim.NewRNG(cfg.Seed)
	// The fast substrate never traces; leaving tr nil turns every Emit in
	// the protocol stack into a nil-receiver no-op.
	var tr *trace.Trace
	if cfg.Substrate != SubstrateFast {
		tr = trace.New(func() sim.Time { return sched.Now() })
	}

	var inj fault.Injector = fault.None{}
	if cfg.PCorrupt > 0 || cfg.PInconsistent > 0 {
		inj = fault.NewStochastic(rng.Split("fault"), cfg.PCorrupt, cfg.PInconsistent,
			cfg.K, cfg.J, cfg.OmissionInterval)
	}
	if cfg.Script != nil {
		inj = fault.Chain{cfg.Script, inj}
	}

	net := &Network{
		cfg:   cfg,
		sched: sched,
		medium: stack.NewMedium(sched, stack.MediumConfig{
			Substrate: cfg.Substrate, Rate: cfg.Rate, Injector: inj, Trace: tr,
		}),
		tr:    tr,
		rng:   rng,
		nodes: make(map[NodeID]*Node),
	}
	if cfg.Record {
		net.log = replay.New()
	}
	if cfg.DualMedia {
		net.mediumB = stack.NewMedium(sched, stack.MediumConfig{Substrate: cfg.Substrate, Rate: cfg.Rate})
	}
	for i := 0; i < n; i++ {
		net.addNode(NodeID(i))
	}
	return net
}

// AddNode attaches a node with the full CANELy stack.
func (n *Network) AddNode(id NodeID) *Node {
	n.enter()
	defer n.leave()
	return n.addNode(id)
}

// addNode is AddNode without the concurrency guard, for use from NewNetwork
// (where the Network has not escaped to any other goroutine yet).
func (n *Network) addNode(id NodeID) *Node {
	media := []stack.Medium{n.medium}
	if n.mediumB != nil {
		media = append(media, n.mediumB)
	}
	scfg := n.cfg.stackConfig()
	scfg.Recorder = n.log
	st, err := stack.New(n.sched, media, id, scfg, n.tr, n.cfg.Hooks)
	if err != nil {
		panic(fmt.Sprintf("canely: %v", err))
	}
	node := &Node{id: id, net: n, st: st}
	n.nodes[id] = node
	n.order = append(n.order, id)
	return node
}

// Node returns the node with the given id, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Nodes returns all nodes in attach order.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.nodes[id])
	}
	return out
}

// BootstrapAll installs the pre-agreed view containing every attached node
// and starts all protocol machinery.
func (n *Network) BootstrapAll() {
	n.enter()
	defer n.leave()
	var view NodeSet
	for _, id := range n.order {
		view = view.Add(id)
	}
	for _, id := range n.order {
		n.nodes[id].st.Bootstrap(view)
	}
}

// Run advances the simulation by d of virtual time. Only one goroutine may
// drive the Network at a time.
func (n *Network) Run(d time.Duration) {
	n.enter()
	defer n.leave()
	n.sched.RunFor(d)
}

// Now returns the current virtual time as an offset from the start.
func (n *Network) Now() time.Duration { return time.Duration(n.sched.Now()) }

// Stats returns a snapshot of medium-A wire statistics.
func (n *Network) Stats() BusStats { return n.medium.Stats() }

// Trace returns the network-wide event trace. It is nil under
// SubstrateFast, which never traces; all trace.Trace methods are
// nil-receiver safe, so reading an absent trace yields empty results.
func (n *Network) Trace() *trace.Trace { return n.tr }

// EventLog returns the recorded core event/command log, or nil unless
// Config.Record was set. The log grows as the simulation runs; verify or
// save it when driving is done.
func (n *Network) EventLog() *replay.Log { return n.log }

// Scheduler exposes the simulation scheduler for advanced scripting
// (scheduling application events at virtual instants).
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Rate returns the configured bus bit rate.
func (n *Network) Rate() BitRate { return n.cfg.Rate }

// Node is one CANELy site: the full protocol stack of Figure 5, assembled
// by internal/stack over the network's media.
type Node struct {
	id  NodeID
	net *Network
	st  *stack.Stack

	tickers []*sim.Ticker
	seq     uint8
}

// ID returns the node identity.
func (nd *Node) ID() NodeID { return nd.id }

// View returns the node's current site membership view (Rf).
func (nd *Node) View() NodeSet { return nd.st.Msh.View() }

// Member reports whether the node is currently a full member.
func (nd *Node) Member() bool { return nd.st.Msh.Member() }

// Bootstrap installs a pre-agreed initial view at this node and starts its
// protocol machinery. All initial members must be bootstrapped with the
// same view.
func (nd *Node) Bootstrap(view NodeSet) { nd.st.Bootstrap(view) }

// Join requests integration into the set of active sites.
func (nd *Node) Join() { nd.st.Join() }

// Leave requests withdrawal from the site membership view.
func (nd *Node) Leave() { nd.st.Leave() }

// OnChange registers a membership change consumer (msh-can.nty).
func (nd *Node) OnChange(fn func(Change)) { nd.st.OnChange(fn) }

// Crash fail-silences the node immediately (on both media under
// DualMedia).
func (nd *Node) Crash() {
	for _, t := range nd.tickers {
		t.Stop()
	}
	nd.st.Crash()
}

// Alive reports whether the node is operational: not crashed and not shut
// down by fault confinement (bus-off). A bus-off node is weak-fail-silent:
// its process may run on, but it can neither send nor receive, so from the
// system's perspective it has failed and its local view is stale. Under
// DualMedia the node is alive while at least one medium serves it.
func (nd *Node) Alive() bool { return nd.st.Alive() }

// Send broadcasts one application data message on a stream. Application
// traffic doubles as an implicit heartbeat (can-data.nty).
func (nd *Node) Send(stream uint8, payload []byte) error {
	nd.seq++
	return nd.st.Layer.DataReq(can.DataSign(stream, nd.id, nd.seq), payload)
}

// StartCyclicTraffic emits one application message on the stream every
// period — the cyclic traffic pattern typical of CAN control applications,
// which the failure detector exploits to avoid explicit life-signs.
func (nd *Node) StartCyclicTraffic(stream uint8, period time.Duration, payload []byte) {
	t := sim.NewTicker(nd.net.sched, func() {
		if nd.Alive() {
			_ = nd.Send(stream, payload)
		}
	})
	// Stagger the first emission to avoid lock-step collisions.
	first := nd.net.rng.Split(fmt.Sprintf("traffic/%d/%d", nd.id, stream)).Duration(period)
	t.StartAt(first, period)
	nd.tickers = append(nd.tickers, t)
}

// StopTraffic stops all cyclic traffic generators on the node.
func (nd *Node) StopTraffic() {
	for _, t := range nd.tickers {
		t.Stop()
	}
	nd.tickers = nil
}

// LifeSigns returns how many explicit life-sign frames this node has
// requested — the quantity the Figure 10 analysis calls b.
func (nd *Node) LifeSigns() int { return nd.st.Det.LifeSigns() }

// ControllerState reports the node's fault-confinement state on medium A
// ("error-active", "error-passive" or "bus-off").
func (nd *Node) ControllerState() string { return nd.st.Ports[0].State().String() }

// ErrorCounters returns the medium-A controller's transmit and receive
// error counters (TEC, REC).
func (nd *Node) ErrorCounters() (tec, rec int) { return nd.st.Ports[0].Counters() }

// Monitoring reports whether the node currently surveils node r.
func (nd *Node) Monitoring(r NodeID) bool { return nd.st.Det.Monitoring(r) }

// Cycles returns the number of completed membership cycles.
func (nd *Node) Cycles() int { return nd.st.Msh.Cycles }

// EnableClockSync starts the CANELy clock synchronization service on this
// node ([15]; the Figure 11 "tens of µs" row). drift is the node crystal's
// fractional rate error (e.g. 100e-6 for +100 ppm); period is the round
// period. The synchronization master is the lowest node in the agreed
// membership view, so a master crash is healed by the membership service
// with no extra election.
func (nd *Node) EnableClockSync(drift float64, period time.Duration) error {
	return nd.st.EnableClockSync(drift, period)
}

// ClockNow returns the node's synchronized local clock reading.
// EnableClockSync must have been called.
func (nd *Node) ClockNow() time.Duration {
	if nd.st.Sync == nil {
		panic("canely: clock sync not enabled")
	}
	return nd.st.Sync.Clock().Now()
}

// EnableGroups starts the process-group membership service on this node:
// group registrations travel over a RELCAN reliable broadcast and group
// views are pruned by the site membership service (§6's motivating use).
func (nd *Node) EnableGroups() error { return nd.st.EnableGroups() }

// JoinGroup announces a local process joining a group. EnableGroups must
// have been called.
func (nd *Node) JoinGroup(g GroupID) error {
	if nd.st.Groups == nil {
		return fmt.Errorf("canely: groups not enabled on %v", nd.id)
	}
	return nd.st.Groups.Join(g)
}

// LeaveGroup announces the local process leaving a group.
func (nd *Node) LeaveGroup(g GroupID) error {
	if nd.st.Groups == nil {
		return fmt.Errorf("canely: groups not enabled on %v", nd.id)
	}
	return nd.st.Groups.Leave(g)
}

// GroupView returns the agreed set of sites hosting members of a group.
func (nd *Node) GroupView(g GroupID) NodeSet {
	if nd.st.Groups == nil {
		return can.EmptySet
	}
	return nd.st.Groups.View(g)
}

// OnGroupChange registers a group view change consumer.
func (nd *Node) OnGroupChange(fn func(GroupChange)) {
	if nd.st.Groups == nil {
		panic("canely: groups not enabled")
	}
	nd.st.Groups.OnChange(fn)
}

// EnableOrderedBroadcast starts the TOTCAN-style totally ordered broadcast
// service ([18]) with the given accept-deadline offset. Every node that
// participates must enable it with the same delta.
func (nd *Node) EnableOrderedBroadcast(delta time.Duration) error {
	return nd.st.EnableOrdered(delta)
}

// OrderedBroadcast sends a payload (≤ 4 bytes) in network-wide total order.
func (nd *Node) OrderedBroadcast(data []byte) error {
	if nd.st.Ordered == nil {
		return fmt.Errorf("canely: ordered broadcast not enabled on %v", nd.id)
	}
	_, err := nd.st.Ordered.Broadcast(data)
	return err
}

// OnOrderedDeliver registers a total-order delivery consumer.
func (nd *Node) OnOrderedDeliver(fn func(from NodeID, data []byte)) {
	if nd.st.Ordered == nil {
		panic("canely: ordered broadcast not enabled")
	}
	nd.st.Ordered.Deliver(func(origin can.NodeID, _ uint8, data []byte) {
		fn(origin, data)
	})
}
