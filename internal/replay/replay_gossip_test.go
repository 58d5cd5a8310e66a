package replay

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/gossip"
	"canely/internal/sim"
)

// TestGossipLogRoundTrips drives a SWIM gossip core, records its
// event/command streams, and checks that the capture saves, loads and
// verifies command-for-command on a fresh core — the property that lets
// the explorer hand counterexample schedules over gossip scenarios to the
// replay harness unchanged.
func TestGossipLogRoundTrips(t *testing.T) {
	cfg := gossip.Config{
		Period:         20 * time.Millisecond,
		AckTimeout:     5 * time.Millisecond,
		SuspectTimeout: 120 * time.Millisecond,
		Fanout:         2,
		Retransmit:     3,
	}
	core, err := gossip.New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := New()
	log.Register(NodeConfig{ID: 0, Gossip: &cfg})
	step := func(ev proto.Event) {
		log.Append(0, ev, fptest.Emit(core, ev))
	}
	at := func(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }
	step(proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1, 2)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipTick, At: at(20)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipAck, At: at(25)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipTick, At: at(40)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerGossipSuspect, At: at(200)})
	step(proto.Event{Kind: proto.EvLeave, At: at(210)})
	if len(log.Records) == 0 {
		t.Fatal("no records captured")
	}

	var buf bytes.Buffer
	if err := log.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("gossip capture does not replay: %v", err)
	}

	rendered := loaded.Render()
	for _, want := range []string{
		"bootstrap",
		"send-data GOSSIP",
		"set-timer gossip-tick",
		"set-timer gossip-ack",
		"failed", // the suspect scan confirmed an unresponsive peer
		"leave-req",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
}
