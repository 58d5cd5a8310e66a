package canely

import (
	"testing"
	"time"

	"canely/internal/fault"
)

// TestDualMediaNetworkSurvivesMediumJam runs the whole CANELy system over
// replicated media and jams medium A mid-run: membership stays consistent
// and no node is falsely expelled.
func TestDualMediaNetworkSurvivesMediumJam(t *testing.T) {
	jam := fault.NewScript(fault.Rule{
		Match:      fault.NewMatch(0),
		Occurrence: 60, // let the system settle, then medium A dies
		Decision:   fault.Decision{Corrupt: true},
		Repeat:     true,
	})
	cfg := DefaultConfig()
	cfg.DualMedia = true
	cfg.Script = jam
	net := NewNetwork(cfg, 4)
	net.BootstrapAll()
	changes := 0
	for _, nd := range net.Nodes() {
		nd.OnChange(func(Change) { changes++ })
	}
	net.Run(time.Second)

	want := MakeSet(0, 1, 2, 3)
	for _, nd := range net.Nodes() {
		if !nd.Alive() {
			t.Fatalf("node %v not alive despite media redundancy", nd.ID())
		}
		if nd.View() != want {
			t.Fatalf("node %v view = %v, want %v", nd.ID(), nd.View(), want)
		}
	}
	if changes != 0 {
		t.Fatalf("membership changes = %d; a medium jam must be transparent", changes)
	}
	// The jam really happened: every medium-A controller is shut down, and
	// the views above held on medium B alone.
	for _, nd := range net.Nodes() {
		if got := nd.ControllerState(); got != "bus-off" {
			t.Fatalf("node %v medium-A controller %s — the jam never bit", nd.ID(), got)
		}
	}
}

// TestSingleMediumJamPartitionsWithoutRedundancy is the control: the same
// jam on a single-medium network takes the whole service down (every
// controller eventually bus-off), motivating the redundancy scheme.
func TestSingleMediumJamPartitionsWithoutRedundancy(t *testing.T) {
	jam := fault.NewScript(fault.Rule{
		Match:      fault.NewMatch(0),
		Occurrence: 60,
		Decision:   fault.Decision{Corrupt: true},
		Repeat:     true,
	})
	cfg := DefaultConfig()
	cfg.Script = jam
	net := NewNetwork(cfg, 4)
	net.BootstrapAll()
	net.Run(2 * time.Second)
	alive := 0
	for _, nd := range net.Nodes() {
		if nd.Alive() {
			alive++
		}
	}
	if alive != 0 {
		t.Fatalf("%d nodes still alive under a permanent jam without redundancy", alive)
	}
}

// TestDualMediaCrashStillDetected confirms a genuine node crash is still
// detected and agreed under dual media (the redundancy must not mask real
// failures).
func TestDualMediaCrashStillDetected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DualMedia = true
	net := NewNetwork(cfg, 4)
	net.BootstrapAll()
	net.Run(100 * time.Millisecond)
	net.Node(3).Crash()
	net.Run(cfg.DetectionLatencyBound() + cfg.Tm)
	requireAgreement(t, net, MakeSet(0, 1, 2))
	if net.Node(3).Alive() {
		t.Fatal("crashed node reports alive")
	}
}
