package federation_test

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/federation"
	"canely/internal/fptest"
	"canely/internal/sim"
)

func at(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }

// TestCoreFingerprint drives a gateway core through its event surface:
// local view feeds, bootstrap, remote digests, leader suppression, the
// periodic announce and the staleness scan all perturb the hash;
// re-delivered digests and own-echo frames do not.
func TestCoreFingerprint(t *testing.T) {
	cfg := federation.Config{
		Gateway: 1,
		Locals:  can.MakeSet(0),
		Tann:    10 * time.Millisecond,
		Tstale:  40 * time.Millisecond,
	}
	fresh := func() proto.Machine {
		c, err := federation.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	digest := func(seg can.NodeID, gw can.NodeID, view can.NodeSet, ms int) proto.Event {
		return proto.Event{Kind: proto.EvDataInd, MID: can.FedDigestSign(seg, gw), At: at(ms)}.WithPayload(view.Bytes())
	}
	fptest.Check(t, fresh, []fptest.Step{
		{Name: "local segment view", Ev: proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1), At: at(0)}, Mutates: true},
		{Name: "bootstrap", Ev: proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 2), At: at(0)}, Mutates: true},
		{Name: "remote digest", Ev: digest(2, 5, can.MakeSet(3, 4), 5), Mutates: true},
		{Name: "re-delivered digest", Ev: digest(2, 5, can.MakeSet(3, 4), 5)},
		{Name: "own echo ignored", Ev: digest(2, 1, can.MakeSet(9), 5)},
		{Name: "leader suppression", Ev: digest(0, 0, can.MakeSet(0, 1), 5), Mutates: true},
		{Name: "announce past suppression", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce, At: at(30)}, Mutates: true},
		{Name: "staleness scan expels silent segment", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedScan, At: at(45)}, Mutates: true},
	})
}

// TestCoreClone checks the gateway core's Clone contract over the same
// digest/announce/scan machinery.
func TestCoreClone(t *testing.T) {
	cfg := federation.Config{
		Gateway: 1,
		Locals:  can.MakeSet(0),
		Tann:    10 * time.Millisecond,
		Tstale:  40 * time.Millisecond,
	}
	fresh := func() proto.Machine {
		c, err := federation.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	digest := func(seg can.NodeID, gw can.NodeID, view can.NodeSet, ms int) proto.Event {
		return proto.Event{Kind: proto.EvDataInd, MID: can.FedDigestSign(seg, gw), At: at(ms)}.WithPayload(view.Bytes())
	}
	fptest.CheckClone(t, fresh,
		func(c proto.Machine) proto.Machine { return c.(*federation.Core).Clone() },
		[]fptest.Step{
			{Name: "local segment view", Ev: proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1), At: at(0)}, Mutates: true},
			{Name: "bootstrap", Ev: proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 2), At: at(0)}, Mutates: true},
			{Name: "remote digest", Ev: digest(2, 5, can.MakeSet(3, 4), 5), Mutates: true},
			{Name: "leader suppression", Ev: digest(0, 0, can.MakeSet(0, 1), 5), Mutates: true},
			{Name: "announce past suppression", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce, At: at(30)}, Mutates: true},
			{Name: "staleness scan expels silent segment", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedScan, At: at(45)}, Mutates: true},
		})
}
