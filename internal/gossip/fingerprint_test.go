package gossip

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

func fpAt(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }

// fpScript drives one core (local node 0) through every state dimension
// the fingerprint must cover: view installation, probe machinery, the
// suspicion lattice, refutation, confirmation, withdrawal — interleaved
// with absorbed re-deliveries that must NOT perturb the hash.
func fpScript() []fptest.Step {
	ack := proto.Event{Kind: proto.EvDataInd, At: fpAt(21), MID: can.GossipSign(0, 1, packRef(kindAck, 1))}
	susp := proto.Event{Kind: proto.EvDataInd, At: fpAt(30), MID: can.GossipSign(0, 1, packRef(kindAck, 2))}
	ping := proto.Event{Kind: proto.EvDataInd, At: fpAt(35), MID: can.GossipSign(0, 1, packRef(kindPing, 2))}
	return []fptest.Step{
		{Name: "bootstrap", Ev: proto.Event{Kind: proto.EvBootstrap, At: fpAt(0), View: can.MakeSet(0, 1, 2)}, Mutates: true},
		{Name: "duplicate bootstrap absorbed", Ev: proto.Event{Kind: proto.EvBootstrap, At: fpAt(1), View: can.MakeSet(0, 1, 2, 3)}},
		{Name: "tick opens a probe", Ev: proto.Event{Kind: proto.EvTimerFired, At: fpAt(20), Timer: proto.TimerGossipTick}, Mutates: true},
		{Name: "ack resolves the probe", Ev: ack.WithPayload([]byte{1}), Mutates: true},
		{Name: "stale ack absorbed", Ev: ack.WithPayload([]byte{1})},
		{Name: "gossip suspects n2", Ev: susp.WithPayload([]byte{1, 2 | stSuspect<<6, 0}), Mutates: true},
		{Name: "same suspicion re-delivered", Ev: susp.WithPayload([]byte{1, 2 | stSuspect<<6, 0})},
		{Name: "claim about self refuted", Ev: ping.WithPayload([]byte{1, 0 | stSuspect<<6, 0}), Mutates: true},
		{Name: "suspicion expires to dead", Ev: proto.Event{Kind: proto.EvTimerFired, At: fpAt(200), Timer: proto.TimerGossipSuspect}, Mutates: true},
		{Name: "leave", Ev: proto.Event{Kind: proto.EvLeave, At: fpAt(210)}, Mutates: true},
	}
}

func fpFresh(t *testing.T) func() proto.Machine {
	return func() proto.Machine {
		g, err := New(0, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// TestGossipFingerprint: the fingerprint is a pure, complete function of
// the core's observable state — the property the exploration engine's
// state-hash pruning rests on.
func TestGossipFingerprint(t *testing.T) {
	fptest.Check(t, fpFresh(t), fpScript())
}

// TestGossipClone: a clone taken at any split point hashes identically,
// tracks the reference trajectory, and never aliases its original — the
// property checkpoint-and-branch exploration rests on.
func TestGossipClone(t *testing.T) {
	fptest.CheckClone(t, fpFresh(t), func(c proto.Machine) proto.Machine {
		return c.(*Core).Clone()
	}, fpScript())
}
