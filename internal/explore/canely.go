package explore

import (
	"fmt"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/proto"
	"canely/internal/replay"
)

// canely describes the paper's protocol suite to the explorer: every node
// is a composite core.Node.
type canely struct{ cfg *core.Config }

func (p canely) nodeConfig(id can.NodeID) replay.NodeConfig {
	cfg := *p.cfg // a captured log outlives the scenario
	return replay.NodeConfig{ID: id, Core: &cfg}
}

// joinEvent carries no view: a CANELy joiner broadcasts a join sign and
// learns the membership from the agreement that follows.
func (canely) joinEvent(can.NodeSet) proto.Event { return proto.Event{Kind: proto.EvJoin} }

func (canely) clone(m proto.Machine) proto.Machine { return m.(*core.Node).Clone() }

func (canely) restore(dst, src proto.Machine) { dst.(*core.Node).Restore(src.(*core.Node)) }

// checkSafety: a full member's view contains itself.
func (canely) checkSafety(id can.NodeID, m proto.Machine) error {
	msh := m.(*core.Node).Msh
	if msh.Member() && !msh.View().Contains(id) {
		return fmt.Errorf("node %v is a member of a view %v omitting itself", id, msh.View())
	}
	return nil
}

func (canely) checkTerminal(id can.NodeID, m proto.Machine, want can.NodeSet) error {
	msh := m.(*core.Node).Msh
	if !msh.Member() {
		return fmt.Errorf("node %v never (re)integrated; view=%v", id, msh.View())
	}
	if got := msh.View(); got != want {
		return fmt.Errorf("node %v converged on %v, want %v", id, got, want)
	}
	return nil
}

// quiescent: the node is an integrated member of exactly the expected
// view, its membership cycle carries no pending work (Rj, Rl and the failed
// set all empty), no RHA execution is running and no FDA agreement is in
// flight.
func (canely) quiescent(m proto.Machine, want can.NodeSet) bool {
	nd := m.(*core.Node)
	return nd.Msh.Member() && nd.Msh.View() == want && nd.Msh.Quiescent() &&
		!nd.RHA.Running() && nd.Det.Quiet()
}
