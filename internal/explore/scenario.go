package explore

import (
	"fmt"
	"time"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/gossip"
	"canely/internal/sim"
)

// Scenario parameterizes the system under exploration: the join+crash
// workload of the paper's Figures 8/9 generalized over population size,
// horizon and fault injection.
type Scenario struct {
	// Nodes is the population size; node ids run 0..Nodes-1.
	Nodes int
	// Config parameterizes every node's protocol cores.
	Config core.Config
	// Gossip, when set, makes every node a SWIM gossip core (swim.go)
	// instead of the CANELy composite (canely.go): its frames are of
	// can.TypeGossip, which the modelled medium delivers unicast to their
	// destination (the datagram substrate's routing), and the safety and
	// terminal checks assert the gossip lattice invariants.
	Gossip *gossip.Config
	// Bootstrap is the pre-agreed initial view; its members come up
	// integrated. Joiners request integration at t=0.
	Bootstrap can.NodeSet
	Joiners   can.NodeSet
	// Crash selects the crash-fault branch: when HasCrash is set, the
	// explorer may crash node Crash at any decision point up to CrashBy.
	Crash    can.NodeID
	HasCrash bool
	CrashBy  sim.Time
	// End bounds the nondeterministic schedule horizon; MaxSteps bounds
	// the whole run's length in steps.
	End sim.Time
	// Settle extends the run past End deterministically (pending frames
	// first, then earliest timers; no branching, no crash) before the
	// terminal liveness check. A bounded horizon can cut a legal recovery
	// mid-flight — a falsely-suspected node rejoins within TjoinWait, but
	// not within an arbitrary cutoff — and flagging that as a violation
	// would be a horizon artifact, not a protocol defect. Genuinely stuck
	// states (divergent views with no agreement pending) survive any
	// settle window and are still caught. Cover at least two full rejoin
	// rounds: 2*(TjoinWait + Tm + Trha + detection latency).
	Settle   time.Duration
	MaxSteps int
	// MaxDepth caps the number of decision points the search branches on.
	MaxDepth int
	// Ttd is the bounded frame-delivery delay: every pending frame must be
	// delivered within Ttd of its transmit request, which bounds how far a
	// timer may fire ahead of the pending queue.
	Ttd time.Duration
	// Skew is the clock-jitter window for timer races: a due timer is
	// schedulable only within Skew of the earliest armed deadline.
	Skew time.Duration
	// Drop, when set, injects a reception fault outside the model's fault
	// assumptions: DropNode silently misses every frame of type DropType.
	// This deliberately breaks the MAC broadcast property the protocols
	// rely on, so the engine can demonstrate counterexample capture.
	Drop     bool
	DropNode can.NodeID
	DropType can.MsgType
}

// DefaultScenario returns the 3-node join+crash scenario the original
// in-test explorer searched: nodes 0,1 bootstrap a pre-agreed view, node 2
// requests to join, node 1 may crash up to 150ms in.
func DefaultScenario() Scenario {
	return Scenario{
		Nodes: 3,
		Config: core.Config{
			FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
			Membership: membership.Config{
				Tm:        50 * time.Millisecond,
				TjoinWait: 120 * time.Millisecond,
				RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
			},
		},
		Bootstrap: can.MakeSet(0, 1),
		Joiners:   can.MakeSet(2),
		Crash:     1,
		HasCrash:  true,
		CrashBy:   sim.Time(150 * time.Millisecond),
		End:       sim.Time(500 * time.Millisecond),
		Settle:    400 * time.Millisecond,
		MaxSteps:  6000,
		MaxDepth:  25,
		Ttd:       2 * time.Millisecond,
		Skew:      time.Millisecond,
	}
}

// DefaultGossipScenario returns the SWIM analogue of the default
// join+crash scenario: nodes 0,1 bootstrap, node 2 joins through them,
// node 1 may crash up to 80ms in. The timing respects the soundness
// argument of the bounded-delay model: Ttd < AckTimeout, so an in-flight
// ack always lands before the probe timer that would falsely expire on it,
// and the only suspicion the search can produce is the real crash.
func DefaultGossipScenario() Scenario {
	return Scenario{
		Nodes: 3,
		Gossip: &gossip.Config{
			Period:         20 * time.Millisecond,
			AckTimeout:     5 * time.Millisecond,
			SuspectTimeout: 60 * time.Millisecond,
			Fanout:         1,
			Retransmit:     3,
		},
		Bootstrap: can.MakeSet(0, 1),
		Joiners:   can.MakeSet(2),
		Crash:     1,
		HasCrash:  true,
		CrashBy:   sim.Time(80 * time.Millisecond),
		End:       sim.Time(200 * time.Millisecond),
		Settle:    300 * time.Millisecond,
		MaxSteps:  6000,
		MaxDepth:  25,
		Ttd:       2 * time.Millisecond,
		Skew:      time.Millisecond,
	}
}

// Scenarios is the table of built-in scenarios, default first: the one
// place a CLI resolves a scenario name, and the source of its help and
// error text.
var Scenarios = []struct {
	Name, Doc string
	New       func() Scenario
}{
	{"canely", "composite cores", DefaultScenario},
	{"gossip", "SWIM baseline", DefaultGossipScenario},
}

// Validate rejects malformed scenarios.
func (sc *Scenario) Validate() error {
	if sc.Nodes < 2 || sc.Nodes > can.MaxNodes {
		return fmt.Errorf("explore: scenario wants %d nodes, supported range is [2,%d]", sc.Nodes, can.MaxNodes)
	}
	if sc.MaxSteps <= 0 || sc.MaxDepth <= 0 {
		return fmt.Errorf("explore: MaxSteps and MaxDepth must be positive")
	}
	if sc.Settle < 0 {
		return fmt.Errorf("explore: negative settle window")
	}
	if sc.Bootstrap.Empty() {
		return fmt.Errorf("explore: empty bootstrap view")
	}
	if !sc.Bootstrap.Intersect(sc.Joiners).Empty() {
		return fmt.Errorf("explore: bootstrap view %v overlaps joiners %v", sc.Bootstrap, sc.Joiners)
	}
	if sc.HasCrash && !sc.Bootstrap.Union(sc.Joiners).Contains(sc.Crash) {
		return fmt.Errorf("explore: crash node %v is not part of the population", sc.Crash)
	}
	// The protocol configuration is valid when a node can be built from it.
	_, err := sc.protocol().nodeConfig(0).New()
	return err
}

// protocol picks the description of the protocol the scenario's nodes run.
func (sc *Scenario) protocol() protocol {
	if sc.Gossip != nil {
		return swim{sc.Gossip}
	}
	return canely{&sc.Config}
}

// want is the membership view every surviving full member must converge on.
func (sc *Scenario) want(crashed bool) can.NodeSet {
	w := sc.Bootstrap.Union(sc.Joiners)
	if crashed {
		w = w.Remove(sc.Crash)
	}
	return w
}
