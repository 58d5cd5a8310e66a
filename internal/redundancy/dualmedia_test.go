package redundancy_test

// End-to-end media-redundancy test: built on the full stack (external test
// package — the stack imports this package's production code, so the test
// cannot live inside package redundancy).

import (
	"testing"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/fault"
	"canely/internal/sim"
	"canely/internal/stack"
)

// TestMembershipOverDualMedia is the end-to-end payoff: a full CANELy
// membership stack over replicated media keeps all views consistent while
// one medium is jammed mid-run.
func TestMembershipOverDualMedia(t *testing.T) {
	jam := fault.NewScript(fault.Rule{
		Match:      fault.NewMatch(0),
		Occurrence: 40, // let the system settle first, then jam A forever
		Decision:   fault.Decision{Corrupt: true},
		Repeat:     true,
	})
	s := sim.NewScheduler()
	mediumA := stack.NewMedium(s, stack.MediumConfig{Injector: jam})
	mediumB := stack.NewMedium(s, stack.MediumConfig{})
	cfg := stack.Config{
		FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
		Membership: membership.Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		},
		J: 2,
	}
	var stacks []*stack.Stack
	for i := 0; i < 4; i++ {
		st, err := stack.New(s, []stack.Medium{mediumA, mediumB}, can.NodeID(i), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, st)
	}
	view := can.MakeSet(0, 1, 2, 3)
	for _, st := range stacks {
		st.Bootstrap(view)
	}
	s.RunUntil(sim.Time(800 * time.Millisecond))
	for i, st := range stacks {
		if st.Msh.View() != view {
			t.Fatalf("node %d view = %v despite media redundancy", i, st.Msh.View())
		}
	}
	// The jam really happened: medium A's controllers are shut down, and
	// the views above held on medium B alone.
	for i, st := range stacks {
		if got := st.Ports[0].State(); got != bus.BusOff {
			t.Fatalf("node %d medium-A controller %v — the jam never bit", i, got)
		}
	}
}
