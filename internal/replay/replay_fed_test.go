package replay

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/federation"
	"canely/internal/fptest"
	"canely/internal/gossip"
	"canely/internal/sim"
)

// TestFederationLogRoundTrips drives a federation core, records its
// event/command streams, and checks that the capture saves, loads,
// verifies on a fresh core and renders every federation command kind.
func TestFederationLogRoundTrips(t *testing.T) {
	cfg := federation.Config{
		Gateway: 7,
		Locals:  can.MakeSet(0),
		Tann:    10 * time.Millisecond,
		Tstale:  40 * time.Millisecond,
	}
	core, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := New()
	log.Register(NodeConfig{ID: 7, Fed: &cfg})
	step := func(ev proto.Event) {
		log.Append(7, ev, fptest.Emit(core, ev))
	}
	step(proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1, 7)})
	step(proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 2)})
	step(proto.Event{Kind: proto.EvDataInd, At: 1, MID: can.FedDigestSign(2, 9)}.
		WithPayload(can.MakeSet(3, 4).Bytes()))
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce,
		At: sim.Time(10 * time.Millisecond)})
	step(proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedScan,
		At: sim.Time(50 * time.Millisecond)})
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
		t.Fatalf("federation capture does not replay: %v", err)
	}

	rendered := loaded.Render()
	for _, want := range []string{
		"fed-local-view s00",
		"bootstrap",
		"send-data FED(s00)@n07",
		"notify-site",
		"site {n00,n02",     // TraceSiteChange (segment removal by staleness)
		"segment s02 stale", // TraceSegmentStale
		"set-timer fed-announce",
		"set-timer fed-scan",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
}

// TestVerifyRejectsConfiglessNode pins the exactly-one-core-per-node
// contract on a loaded log: every malformed registration is refused with an
// error naming the node, before any record is checked against a core of the
// wrong protocol.
func TestVerifyRejectsConfiglessNode(t *testing.T) {
	fed := federation.Config{Gateway: 1, Locals: can.MakeSet(0), Tann: 10 * time.Millisecond, Tstale: 40 * time.Millisecond}
	gsp := gossip.Config{Period: 20 * time.Millisecond, AckTimeout: 5 * time.Millisecond,
		SuspectTimeout: 60 * time.Millisecond, Fanout: 1, Retransmit: 3}
	for _, tc := range []struct {
		name  string
		nodes []NodeConfig
		want  string
	}{
		{"no configuration", []NodeConfig{{ID: 1}}, "n01 registered without a core configuration"},
		{"two configurations", []NodeConfig{{ID: 1, Fed: &fed, Gossip: &gsp}}, "n01 registered with more than one core configuration"},
		{"duplicate id", []NodeConfig{{ID: 1, Gossip: &gsp}, {ID: 1, Fed: &fed}}, "n01 registered twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := (&Log{Nodes: tc.nodes}).Verify()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
