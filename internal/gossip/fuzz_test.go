package gossip

// FuzzGossipCore drives the pure SWIM core through arbitrary valid event
// sequences. Because the core is sans-I/O, the fuzzer needs no substrate,
// scheduler or harness — just bytes decoded into events — and checks the
// structural invariants the runtime binding and the comparison study rely
// on:
//
//   - StepInto never panics on valid input.
//   - The local node stays in its own view until it leaves (refutation
//     defeats every suspicion or death claim about self).
//   - Suspects are members (suspicion is a degraded membership state, not
//     an exit), and the dead set is disjoint from the member set.
//   - The per-node lattice point (incarnation, state rank) never moves
//     backwards: stale gossip cannot resurrect an older view of a node.
//   - Every armed timer has a strictly positive delay (the binding would
//     otherwise busy-loop the scheduler).

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

func fuzzEvent(op, a, b byte) proto.Event {
	at := sim.Time(int64(a)) * sim.Time(time.Millisecond)
	src := can.NodeID(b % 8)
	kind := (a >> 4) & 0x07
	seq := a & 0x0F
	switch op % 8 {
	case 0:
		// Bootstrap view: arbitrary 8-node subset forced to contain the
		// local node 0.
		return proto.Event{Kind: proto.EvBootstrap, At: at, View: can.NodeSet(uint64(a)) | can.MakeSet(0)}
	case 1:
		return proto.Event{Kind: proto.EvJoin, At: at, View: can.NodeSet(uint64(b))}
	case 2:
		return proto.Event{Kind: proto.EvLeave, At: at}
	case 3:
		return proto.Event{Kind: proto.EvTimerFired, At: at, Timer: proto.TimerGossipTick}
	case 4:
		return proto.Event{Kind: proto.EvTimerFired, At: at, Timer: proto.TimerGossipAck}
	case 5:
		return proto.Event{Kind: proto.EvTimerFired, At: at, Timer: proto.TimerGossipSuspect}
	case 6:
		// A unicast gossip message to us: arbitrary kind (including the
		// undefined ones the dispatch must ignore), one piggyback entry.
		ev := proto.Event{Kind: proto.EvDataInd, At: at, MID: can.GossipSign(0, src, packRef(kind, seq))}
		return ev.WithPayload([]byte{b, a, b})
	case 7:
		// Sometimes misaddressed (dest 1) — the core must ignore those.
		ev := proto.Event{Kind: proto.EvDataInd, At: at, MID: can.GossipSign(can.NodeID(b%2), src, packRef(kind, seq))}
		return ev.WithPayload([]byte{b % 8, b, a, a, b})
	}
	panic("unreachable")
}

func FuzzGossipCore(f *testing.F) {
	f.Add([]byte{0, 7, 1, 3, 20, 0, 6, 0x21, 1})                    // bootstrap, tick, ack
	f.Add([]byte{1, 6, 2, 3, 20, 0, 4, 25, 0, 5, 200, 0})           // join, probe, timeouts
	f.Add([]byte{0, 255, 7, 6, 0x12, 0x82, 6, 0x13, 0xC2, 2, 9, 0}) // suspicion, death, leave
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := New(0, Config{
			Period:         20 * time.Millisecond,
			AckTimeout:     5 * time.Millisecond,
			SuspectTimeout: 120 * time.Millisecond,
			Fanout:         2,
			Retransmit:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var prevSt, prevInc [can.MaxNodes]uint8
		for i := 0; i+2 < len(data); i += 3 {
			ev := fuzzEvent(data[i], data[i+1], data[i+2])
			cmds := fptest.Emit(g, ev)

			if !g.left && !g.View().Contains(0) {
				t.Fatalf("event %v evicted the local node from its own view", ev)
			}
			if bad := g.Suspects() &^ g.View(); bad != 0 {
				t.Fatalf("suspects %v outside the member set %v", bad, g.View())
			}
			if bad := g.Dead() & g.View(); bad != 0 {
				t.Fatalf("nodes %v both dead and members", bad)
			}
			for n := 0; n < can.MaxNodes; n++ {
				if g.inc[n] < prevInc[n] ||
					(g.inc[n] == prevInc[n] && g.st[n] < prevSt[n]) {
					t.Fatalf("event %v moved node %d backwards in the lattice: (%d,%d) -> (%d,%d)",
						ev, n, prevInc[n], prevSt[n], g.inc[n], g.st[n])
				}
				prevSt[n], prevInc[n] = g.st[n], g.inc[n]
			}
			for _, c := range cmds {
				if c.Kind == proto.CmdSetTimer && c.Delay <= 0 {
					t.Fatalf("non-positive timer delay in %v", c)
				}
			}
		}
	})
}
