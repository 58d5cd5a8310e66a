package core_test

import (
	"hash/maphash"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

func fpAt(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }

// TestNodeFingerprint checks the composite core's fingerprint: it must
// cover every sub-core, so events that only touch one layer (a join sign
// reaches membership, a life-sign reaches the detector) still perturb the
// whole-node hash, while idempotent re-deliveries leave it unchanged.
func TestNodeFingerprint(t *testing.T) {
	cfg := core.Config{
		FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
		Membership: membership.Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		},
	}
	fresh := func() proto.Machine {
		n, err := core.New(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fptest.Check(t, fresh, []fptest.Step{
		{Name: "bootstrap", Ev: proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: fpAt(0)}, Mutates: true},
		{Name: "join sign reaches membership", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(2), At: fpAt(1)}, Mutates: true},
		{Name: "life-sign restarts surveillance", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(1), At: fpAt(5)}, Mutates: true},
		{Name: "equal life-sign is idempotent", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(1), At: fpAt(5)}},
		{Name: "membership cycle", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: fpAt(50), Node: 0}, Mutates: true},
	})
}

// TestNodeClone checks the composite core's Clone contract: every sub-core
// deep-copied, the RHA environment re-bound to the cloned membership
// protocol — stepping a clone through inter-core routing chains must track
// the reference run without perturbing its original.
func TestNodeClone(t *testing.T) {
	cfg := core.Config{
		FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
		Membership: membership.Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		},
	}
	fresh := func() proto.Machine {
		n, err := core.New(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	fptest.CheckClone(t, fresh,
		func(c proto.Machine) proto.Machine { return c.(*core.Node).Clone() },
		[]fptest.Step{
			{Name: "bootstrap", Ev: proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: fpAt(0)}, Mutates: true},
			{Name: "join sign reaches membership", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(2), At: fpAt(1)}, Mutates: true},
			{Name: "life-sign restarts surveillance", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(1), At: fpAt(5)}, Mutates: true},
			{Name: "membership cycle starts agreement", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: fpAt(50), Node: 0}, Mutates: true},
			{Name: "agreement terminates", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerRHATerm, At: fpAt(55), Node: 0}, Mutates: true},
		})
}

// TestNodeRestore checks the allocation-free restore path the exploration
// engine's snapshot pool resumes through: restoring an advanced node onto a
// diverged one must make it hash identical to the source, with no aliasing
// between the two afterwards.
func TestNodeRestore(t *testing.T) {
	cfg := core.Config{
		FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
		Membership: membership.Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		},
	}
	sum := func(n *core.Node) uint64 {
		var h maphash.Hash
		h.SetSeed(fpSeed)
		n.Fingerprint(&h)
		return h.Sum64()
	}
	src, err := core.New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fptest.Emit(src, proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: fpAt(0)})
	fptest.Emit(src, proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(2), At: fpAt(1)})
	fptest.Emit(src, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: fpAt(50), Node: 0})

	dst, err := core.New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fptest.Emit(dst, proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 2), At: fpAt(0)})
	dst.Restore(src)
	if sum(dst) != sum(src) {
		t.Fatal("restored node does not hash like its source")
	}
	before := sum(src)
	fptest.Emit(dst, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerRHATerm, At: fpAt(55), Node: 0})
	if sum(src) != before {
		t.Fatal("stepping the restored node mutated the source: aliased state")
	}
	if sum(dst) == before {
		t.Fatal("restored node did not evolve")
	}
}

var fpSeed = maphash.MakeSeed()
