package gossip

import (
	"fmt"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/datagram"
	"canely/internal/sim"
)

// NetworkConfig parameterizes a simulated gossip cluster.
type NetworkConfig struct {
	// Nodes is the cluster size (ids 0..Nodes-1), at most can.MaxNodes.
	Nodes int
	// Core parameterizes every node's SWIM core.
	Core Config
	// Rate is the per-interface serialization rate.
	Rate can.BitRate
	// Link is the loss/delay/duplication distribution of every link.
	Link datagram.LinkParams
	// Seed roots the network's sampling streams.
	Seed int64
}

// Network binds n gossip cores to a shared datagram substrate: the runtime
// harness the gossip integration tests and small-scale experiments run on,
// playing the role internal/stack plays for the CANELy cores. The binding
// owns only alarm machinery and command execution; all protocol state is
// in the cores.
type Network struct {
	Sched *sim.Scheduler
	Net   *datagram.Net
	nodes []*boundNode
}

// The binding receives indications through the controller handler.
var _ bus.Handler = (*boundNode)(nil)

// boundNode is one core's runtime binding.
type boundNode struct {
	nw     *Network
	id     can.NodeID
	core   *Core
	port   *datagram.Port
	timers [proto.NumTimers]sim.Event
	// expire holds one pre-bound expiry callback per timer, so arming a
	// timer makes no closure.
	expire [proto.NumTimers]func()
	buf    proto.CommandBuf
}

// NewNetwork builds the cluster. Nodes start idle: drive them with
// Bootstrap and Join, then run the scheduler.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Nodes < 2 || cfg.Nodes > can.MaxNodes {
		return nil, fmt.Errorf("gossip: cluster size %d outside [2,%d]", cfg.Nodes, can.MaxNodes)
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	sched := sim.NewScheduler()
	nw := &Network{
		Sched: sched,
		Net:   datagram.New(sched, datagram.Config{Rate: cfg.Rate, Seed: cfg.Seed, Link: cfg.Link}),
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := can.NodeID(i)
		core, err := New(id, cfg.Core)
		if err != nil {
			return nil, err
		}
		n := &boundNode{nw: nw, id: id, core: core, port: nw.Net.Attach(id)}
		n.port.SetHandler(n)
		for t := range n.expire {
			timer := proto.TimerID(t)
			n.expire[t] = func() {
				n.step(proto.Event{Kind: proto.EvTimerFired, At: nw.Sched.Now(), Timer: timer})
			}
		}
		nw.nodes = append(nw.nodes, n)
	}
	return nw, nil
}

// Core returns node id's protocol core (read-only inspection).
func (nw *Network) Core(id can.NodeID) *Core { return nw.nodes[id].core }

// Bootstrap installs the initial view at every member of view.
func (nw *Network) Bootstrap(view can.NodeSet) {
	for s := view; !s.Empty(); {
		id := s.Lowest()
		s = s.Remove(id)
		nw.nodes[id].step(proto.Event{Kind: proto.EvBootstrap, At: nw.Sched.Now(), View: view})
	}
}

// Join starts node id as a joiner through the seed contacts.
func (nw *Network) Join(id can.NodeID, contacts can.NodeSet) {
	nw.nodes[id].step(proto.Event{Kind: proto.EvJoin, At: nw.Sched.Now(), View: contacts})
}

// Crash fail-silences node id.
func (nw *Network) Crash(id can.NodeID) {
	n := nw.nodes[id]
	n.port.Crash()
	for i := range n.timers {
		n.timers[i].Cancel()
	}
}

// RunFor advances the cluster by d of virtual time.
func (nw *Network) RunFor(d time.Duration) { nw.Sched.RunFor(sim.Duration(d)) }

// OnFrame implements bus.Handler: a delivered frame becomes EvDataInd.
func (n *boundNode) OnFrame(f can.Frame, own bool) {
	if own || f.RTR {
		return
	}
	mid, err := can.DecodeMID(f.ID)
	if err != nil || mid.Type != can.TypeGossip {
		return
	}
	ev := proto.Event{Kind: proto.EvDataInd, At: n.nw.Sched.Now(), MID: mid}
	n.step(ev.WithPayload(f.Payload()))
}

// OnConfirm implements bus.Handler (unused: datagram sends are
// fire-and-forget at this layer).
func (n *boundNode) OnConfirm(can.Frame) {}

// OnBusOff implements bus.Handler (unreachable: the datagram port has no
// fault confinement).
func (n *boundNode) OnBusOff() {}

// step feeds one event to the core and executes the resulting commands.
func (n *boundNode) step(ev proto.Event) {
	n.buf.Reset()
	n.core.StepInto(ev, &n.buf)
	for _, c := range n.buf.Commands() {
		switch c.Kind {
		case proto.CmdSendData:
			f := can.Frame{ID: c.MID.Encode()}
			f.SetPayload(c.Payload())
			_ = n.port.Request(f) // rejected only after a crash
		case proto.CmdSetTimer:
			n.timers[c.Timer].Cancel()
			n.timers[c.Timer] = n.nw.Sched.After(c.Delay, n.expire[c.Timer])
		case proto.CmdCancelTimer:
			n.timers[c.Timer].Cancel()
		}
	}
}
