package explore

import (
	"fmt"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/gossip"
	"canely/internal/replay"
)

// swim describes the SWIM gossip baseline to the explorer: every node is a
// gossip.Core.
type swim struct{ cfg *gossip.Config }

func (p swim) nodeConfig(id can.NodeID) replay.NodeConfig {
	cfg := *p.cfg // a captured log outlives the scenario
	return replay.NodeConfig{ID: id, Gossip: &cfg}
}

// joinEvent seeds the joiner with the bootstrap members as its introduction
// contacts: a datagram network has no broadcast to announce itself on.
func (swim) joinEvent(bootstrap can.NodeSet) proto.Event {
	return proto.Event{Kind: proto.EvJoin, View: bootstrap}
}

func (swim) clone(m proto.Machine) proto.Machine { return m.(*gossip.Core).Clone() }

func (swim) restore(dst, src proto.Machine) { dst.(*gossip.Core).Restore(src.(*gossip.Core)) }

// checkSafety asserts the gossip lattice invariants: a node never evicts
// itself, suspects only members, and holds nobody both dead and member.
func (swim) checkSafety(id can.NodeID, m proto.Machine) error {
	g := m.(*gossip.Core)
	if !g.View().Contains(id) {
		return fmt.Errorf("gossip node %v evicted itself from its view %v", id, g.View())
	}
	if bad := g.Suspects() &^ g.View(); bad != 0 {
		return fmt.Errorf("gossip node %v suspects non-members %v", id, bad)
	}
	if bad := g.Dead() & g.View(); bad != 0 {
		return fmt.Errorf("gossip node %v holds %v both dead and member", id, bad)
	}
	return nil
}

func (swim) checkTerminal(id can.NodeID, m proto.Machine, want can.NodeSet) error {
	g := m.(*gossip.Core)
	if got := g.View(); got != want {
		return fmt.Errorf("gossip node %v converged on %v, want %v", id, got, want)
	}
	if !g.Suspects().Empty() {
		return fmt.Errorf("gossip node %v still suspects %v at the horizon", id, g.Suspects())
	}
	return nil
}

// quiescent is never true: SWIM has no frame-free steady state — probe
// traffic never ceases, and any in-flight piggyback could still start a
// (refutable) suspicion — so the settle phase always runs to its horizon.
func (swim) quiescent(proto.Machine, can.NodeSet) bool { return false }
