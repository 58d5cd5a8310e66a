package membership_test

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

func at(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }

func cfg() membership.Config {
	return membership.Config{
		Tm:        50 * time.Millisecond,
		TjoinWait: 120 * time.Millisecond,
		RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
	}
}

// TestProtocolFingerprint drives the site membership core through the join
// and crash machinery: every transition of the Figure 9 data sets perturbs
// the hash, re-delivered signs do not.
func TestProtocolFingerprint(t *testing.T) {
	fresh := func() proto.Machine {
		p, err := membership.New(0, cfg())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fptest.Check(t, fresh, []fptest.Step{
		{Name: "bootstrap", Ev: proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: at(0)}, Mutates: true},
		{Name: "join sign", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(2), At: at(1)}, Mutates: true},
		{Name: "duplicate join sign", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(2), At: at(2)}},
		{Name: "membership cycle", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: at(50)}, Mutates: true},
		{Name: "agreement integrates joiner", Ev: proto.Event{Kind: proto.EvRHAEnd, View: can.MakeSet(0, 1, 2), At: at(55)}, Mutates: true},
		{Name: "failure notification", Ev: proto.Event{Kind: proto.EvFDNty, Node: 1, At: at(80)}, Mutates: true},
		{Name: "next cycle folds the failure", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: at(100)}, Mutates: true},
	})
}

// TestProtocolClone checks the membership protocol's Clone contract over
// the join and crash machinery.
func TestProtocolClone(t *testing.T) {
	fresh := func() proto.Machine {
		p, err := membership.New(0, cfg())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fptest.CheckClone(t, fresh,
		func(c proto.Machine) proto.Machine { return c.(*membership.Protocol).Clone() },
		[]fptest.Step{
			{Name: "bootstrap", Ev: proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: at(0)}, Mutates: true},
			{Name: "join sign", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(2), At: at(1)}, Mutates: true},
			{Name: "membership cycle", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: at(50)}, Mutates: true},
			{Name: "agreement integrates joiner", Ev: proto.Event{Kind: proto.EvRHAEnd, View: can.MakeSet(0, 1, 2), At: at(55)}, Mutates: true},
			{Name: "failure notification", Ev: proto.Event{Kind: proto.EvFDNty, Node: 1, At: at(80)}, Mutates: true},
			{Name: "next cycle folds the failure", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: at(100)}, Mutates: true},
		})
}

// TestRHAFingerprint drives the reception history agreement core (with a
// live membership protocol as its shared-sets environment) through an
// execution: proposal, duplicate counting, intersection shrink, expiry.
func TestRHAFingerprint(t *testing.T) {
	fresh := func() proto.Machine {
		p, err := membership.New(0, cfg())
		if err != nil {
			t.Fatal(err)
		}
		fptest.Emit(p, proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: at(0)})
		r, err := membership.NewRHA(0, cfg().RHA, p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rhv := func(s can.NodeSet, src can.NodeID) proto.Event {
		return proto.Event{Kind: proto.EvDataInd, MID: can.RHASign(s.Count(), src), At: at(1)}.WithPayload(s.Bytes())
	}
	fptest.Check(t, fresh, []fptest.Step{
		{Name: "request starts execution", Ev: proto.Event{Kind: proto.EvRHARequest, At: at(0)}, Mutates: true},
		{Name: "first matching vector", Ev: rhv(can.MakeSet(0, 1), 1), Mutates: true},
		{Name: "second matching vector", Ev: rhv(can.MakeSet(0, 1), 1), Mutates: true},
		{Name: "smaller vector shrinks proposal", Ev: rhv(can.MakeSet(0), 1), Mutates: true},
		{Name: "non-RHA data ignored", Ev: proto.Event{Kind: proto.EvDataInd, MID: can.DataSign(0, 1, 0), At: at(2)}.WithPayload([]byte{1})},
		{Name: "termination alarm", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerRHATerm, At: at(5)}, Mutates: true},
	})
}

// TestRHAClone checks the RHA's Clone contract. The shared-sets environment
// is identity, not state: the harness hands each clone the same membership
// protocol its original reads (RHA steps never mutate the environment), so
// original and clone evolve independently over identical set views.
func TestRHAClone(t *testing.T) {
	var env *membership.Protocol
	fresh := func() proto.Machine {
		p, err := membership.New(0, cfg())
		if err != nil {
			t.Fatal(err)
		}
		fptest.Emit(p, proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: at(0)})
		env = p
		r, err := membership.NewRHA(0, cfg().RHA, p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rhv := func(s can.NodeSet, src can.NodeID) proto.Event {
		return proto.Event{Kind: proto.EvDataInd, MID: can.RHASign(s.Count(), src), At: at(1)}.WithPayload(s.Bytes())
	}
	fptest.CheckClone(t, fresh,
		func(c proto.Machine) proto.Machine { return c.(*membership.RHA).Clone(env) },
		[]fptest.Step{
			{Name: "request starts execution", Ev: proto.Event{Kind: proto.EvRHARequest, At: at(0)}, Mutates: true},
			{Name: "first matching vector", Ev: rhv(can.MakeSet(0, 1), 1), Mutates: true},
			{Name: "second matching vector", Ev: rhv(can.MakeSet(0, 1), 1), Mutates: true},
			{Name: "smaller vector shrinks proposal", Ev: rhv(can.MakeSet(0), 1), Mutates: true},
			{Name: "termination alarm", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerRHATerm, At: at(5)}, Mutates: true},
		})
}
