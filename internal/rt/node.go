package rt

import (
	"fmt"
	"time"

	"canely/internal/can"
	"canely/internal/core/membership"
	"canely/internal/replay"
	"canely/internal/sim"
	"canely/internal/stack"
)

// NodeConfig parameterizes one live node.
type NodeConfig struct {
	// ID is the node identity on the bus.
	ID can.NodeID
	// Broker is the primary broker address ("unix:/path" or
	// "[tcp:]host:port").
	Broker string
	// BrokerB, when non-empty, dials a second broker as the replicated
	// medium of the CANELy media-redundancy scheme: the stack transmits on
	// both and passes up the first copy of each frame, exactly as under
	// simulated dual media.
	BrokerB string
	// Stack parameterizes the protocol stack (FD, membership, J). The zero
	// value is invalid; fill FD and Membership.
	Stack stack.Config
	// Rate, when non-zero, asserts the brokers' signalling rate.
	Rate can.BitRate
	// Record captures the node's core event/command streams for
	// deterministic re-verification (EventLog).
	Record bool
	// Dial tunes connection establishment and reconnect backoff. Addr and
	// Rate fields are overridden per broker.
	Dial DialConfig
}

// Node is one live CANELy site: the full Figure 5 stack assembled by
// internal/stack over one or two broker connections, driven by wall-clock
// timers on a dedicated Loop.
//
// Exported methods are goroutine-safe: each marshals onto the loop and
// waits. They must not be called from protocol callbacks (OnChange) —
// those already run on the loop; use the Stack directly there.
type Node struct {
	loop  *Loop
	media []*Medium
	stack *stack.Stack
	log   *replay.Log

	tickers []*sim.Ticker
	seq     uint8
}

// StartNode dials the broker(s), assembles the protocol stack and starts
// the node's event loop. The returned node is quiescent until Bootstrap or
// Join.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Broker == "" {
		return nil, fmt.Errorf("rt: no broker address")
	}
	loop := StartLoop()
	n := &Node{loop: loop}
	fail := func(err error) (*Node, error) {
		for _, m := range n.media {
			m.Close()
		}
		loop.Close()
		return nil, err
	}

	addrs := []string{cfg.Broker}
	if cfg.BrokerB != "" {
		addrs = append(addrs, cfg.BrokerB)
	}
	var media []stack.Medium
	for _, addr := range addrs {
		dc := cfg.Dial
		dc.Addr = addr
		dc.Rate = cfg.Rate
		m, err := DialMedium(loop, cfg.ID, dc)
		if err != nil {
			return fail(err)
		}
		n.media = append(n.media, m)
		media = append(media, m)
	}

	scfg := cfg.Stack
	if cfg.Record {
		n.log = replay.New()
		scfg.Recorder = n.log
	}
	var buildErr error
	// The stack is assembled on the loop so frame indications racing in
	// from the broker serialize after the handlers are installed.
	if !loop.Call(func() {
		n.stack, buildErr = stack.New(loop.Scheduler(), media, cfg.ID, scfg, nil, nil)
	}) {
		buildErr = fmt.Errorf("rt: loop closed during stack assembly")
	}
	if buildErr != nil {
		return fail(buildErr)
	}
	return n, nil
}

// Loop returns the node's event loop (for scheduling application work at
// wall-clock instants via Post/Call).
func (n *Node) Loop() *Loop { return n.loop }

// Stack returns the underlying protocol stack. It must only be touched
// from the loop goroutine.
func (n *Node) Stack() *stack.Stack { return n.stack }

// ID returns the node identity.
func (n *Node) ID() can.NodeID { return n.stack.ID() }

// Bootstrap installs a pre-agreed initial view and starts the protocol
// machinery.
func (n *Node) Bootstrap(view can.NodeSet) {
	n.loop.Call(func() { n.stack.Bootstrap(view) })
}

// Join requests integration into the active site set.
func (n *Node) Join() { n.loop.Call(n.stack.Join) }

// Leave requests withdrawal from the site membership view.
func (n *Node) Leave() { n.loop.Call(n.stack.Leave) }

// Crash fail-silences the node on every medium.
func (n *Node) Crash() {
	n.loop.Call(func() {
		for _, t := range n.tickers {
			t.Stop()
		}
		n.stack.Crash()
	})
}

// View returns the current site membership view.
func (n *Node) View() can.NodeSet {
	var v can.NodeSet
	n.loop.Call(func() { v = n.stack.Msh.View() })
	return v
}

// Member reports whether the node is currently a full member.
func (n *Node) Member() bool {
	var ok bool
	n.loop.Call(func() { ok = n.stack.Msh.Member() })
	return ok
}

// Alive reports whether the node is operational on at least one medium.
func (n *Node) Alive() bool {
	var ok bool
	n.loop.Call(func() { ok = n.stack.Alive() })
	return ok
}

// Connected reports whether the primary broker link is up.
func (n *Node) Connected() bool {
	var ok bool
	n.loop.Call(func() { ok = n.media[0].port.Connected() })
	return ok
}

// LifeSigns returns the number of explicit life-signs requested so far.
func (n *Node) LifeSigns() int {
	var v int
	n.loop.Call(func() { v = n.stack.Det.LifeSigns() })
	return v
}

// OnChange registers a membership change consumer. The callback runs on
// the loop goroutine.
func (n *Node) OnChange(fn func(membership.Change)) {
	n.loop.Call(func() { n.stack.OnChange(fn) })
}

// Send broadcasts one application data message on a stream (implicit
// heartbeat traffic).
func (n *Node) Send(stream uint8, payload []byte) error {
	var err error
	n.loop.Call(func() {
		n.seq++
		err = n.stack.Layer.DataReq(can.DataSign(stream, n.ID(), n.seq), payload)
	})
	return err
}

// StartCyclicTraffic emits one application message on the stream every
// period, phase-shifted by the node id to avoid lock-step requests from
// co-started processes.
func (n *Node) StartCyclicTraffic(stream uint8, period time.Duration, payload []byte) {
	n.loop.Call(func() {
		t := sim.NewTicker(n.loop.Scheduler(), func() {
			if n.stack.Alive() {
				n.seq++
				_ = n.stack.Layer.DataReq(can.DataSign(stream, n.stack.ID(), n.seq), payload)
			}
		})
		first := period/time.Duration(can.MaxNodes)*time.Duration(n.stack.ID()) + time.Millisecond
		t.StartAt(first, period)
		n.tickers = append(n.tickers, t)
	})
}

// EventLog returns the recorded core event/command log (nil unless
// NodeConfig.Record). Read it only after Close: the loop appends to it
// while running.
func (n *Node) EventLog() *replay.Log { return n.log }

// Close stops the node: media torn down, loop stopped. The protocol state
// remains readable through Stack afterwards (the loop no longer runs, so
// single-goroutine access is safe again for whoever holds the Node).
func (n *Node) Close() {
	for _, m := range n.media {
		m.Close()
	}
	n.loop.Close()
}
