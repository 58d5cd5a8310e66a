package membership

// FuzzMembershipCore drives the pure membership core through arbitrary
// valid event sequences. Because the core is sans-I/O, the fuzzer needs no
// bus, scheduler or harness — just bytes decoded into events — and checks
// the structural invariants the runtime binding and the paper both rely on:
//
//   - Step never panics on valid input (bootstrap views are forced to
//     contain the local node, the one documented panic).
//   - The view Rf only changes at cycle boundaries (bootstrap, cycle timer,
//     RHA init, RHA end) — request collection and failure folding must not
//     touch it mid-cycle.
//   - Within a cycle the view is monotone: an RHA-init resynchronization
//     can only shrink Rf (by folding Fset), never grow it; the same holds
//     for a cycle-timer expiry at a full member.
//   - An agreed RHA vector bounds the next view: Rf' ⊆ rhv.
//   - A node that completed its withdrawal (final Left notification) stays
//     out: no later event may silently re-integrate it.

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/fptest"
)

func fuzzEvent(op, arg byte) proto.Event {
	r := can.NodeID(arg % 16)
	switch op % 10 {
	case 0:
		// Bootstrap view: arbitrary 16-node subset forced to contain the
		// local node 0.
		return proto.Event{Kind: proto.EvBootstrap, View: can.NodeSet(uint64(arg)) | can.MakeSet(0)}
	case 1:
		return proto.Event{Kind: proto.EvJoin}
	case 2:
		return proto.Event{Kind: proto.EvLeave}
	case 3:
		return proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(r)}
	case 4:
		return proto.Event{Kind: proto.EvRTRInd, MID: can.LeaveSign(r)}
	case 5:
		return proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(r)}
	case 6:
		return proto.Event{Kind: proto.EvDataNty, MID: can.DataSign(arg%4, r, arg)}
	case 7:
		return proto.Event{Kind: proto.EvFDNty, Node: r}
	case 8:
		return proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle}
	case 9:
		if arg%2 == 0 {
			return proto.Event{Kind: proto.EvRHAInit}
		}
		return proto.Event{Kind: proto.EvRHAEnd, View: can.NodeSet(uint64(arg))}
	}
	panic("unreachable")
}

func FuzzMembershipCore(f *testing.F) {
	f.Add([]byte{0, 7, 8, 3})                                 // bootstrap, cycle, join sign
	f.Add([]byte{1, 1, 8, 0, 9, 0, 9, 1})                     // join, cold-start cycle, RHA round
	f.Add([]byte{0, 255, 7, 1, 7, 2, 8, 0, 9, 1, 2, 0, 8, 0}) // failures + leave
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := New(0, Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		hasLeft := false
		for i := 0; i+1 < len(data); i += 2 {
			ev := fuzzEvent(data[i], data[i+1])
			before := p.View()
			wasMember := p.Member()
			cmds := fptest.Emit(p, ev)
			after := p.View()

			switch ev.Kind {
			case proto.EvJoin, proto.EvLeave, proto.EvRTRInd, proto.EvDataNty, proto.EvFDNty:
				if after != before {
					t.Fatalf("event %v changed the view mid-cycle: %v -> %v", ev, before, after)
				}
			case proto.EvRHAInit:
				if after.Diff(before) != can.EmptySet {
					t.Fatalf("RHA init grew the view: %v -> %v", before, after)
				}
			case proto.EvTimerFired:
				if wasMember && after.Diff(before) != can.EmptySet {
					t.Fatalf("cycle timer grew a member's view: %v -> %v", before, after)
				}
			case proto.EvRHAEnd:
				if after.Diff(ev.View) != can.EmptySet {
					t.Fatalf("view %v escapes the agreed vector %v", after, ev.View)
				}
			}

			for _, c := range cmds {
				if c.Kind == proto.CmdSetTimer && c.Delay <= 0 {
					t.Fatalf("non-positive timer delay in %v", c)
				}
				if c.Kind == proto.CmdNotifyView && c.Left {
					hasLeft = true
				}
			}
			if hasLeft && p.Member() {
				// Only an explicit re-join or bootstrap may bring the node back.
				if ev.Kind != proto.EvBootstrap && ev.Kind != proto.EvJoin &&
					ev.Kind != proto.EvTimerFired && ev.Kind != proto.EvRHAEnd {
					t.Fatalf("event %v re-integrated a withdrawn node", ev)
				}
				hasLeft = false
			}
		}
	})
}
