package canely

import (
	"testing"
	"time"
)

// TestFacadeSurface exercises the introspection and control surface of the
// public API that the scenario tests do not reach.
func TestFacadeSurface(t *testing.T) {
	cfg := DefaultConfig()
	net := NewNetwork(cfg, 3)
	net.BootstrapAll()

	if net.Rate() != cfg.Rate {
		t.Fatal("Rate passthrough wrong")
	}
	nd := net.Node(0)
	if nd.ControllerState() != "error-active" {
		t.Fatalf("ControllerState = %q", nd.ControllerState())
	}
	if tec, rec := nd.ErrorCounters(); tec != 0 || rec != 0 {
		t.Fatalf("fresh counters = %d/%d", tec, rec)
	}

	nd.StartCyclicTraffic(1, 2*time.Millisecond, []byte{1})
	net.Run(10 * time.Millisecond)
	before := net.Stats().FramesOK
	nd.StopTraffic()
	net.Run(20 * time.Millisecond)
	// Only life-signs flow after StopTraffic; application frames ceased.
	after := net.Stats()
	if after.FramesOK == before {
		t.Fatal("bus went fully silent — life-signs should continue")
	}
	net.Run(2 * cfg.Tm)
	if nd.Cycles() == 0 {
		t.Fatal("membership cycles not counted")
	}
}

func TestFacadeGroupLeave(t *testing.T) {
	net := NewNetwork(DefaultConfig(), 3)
	for _, nd := range net.Nodes() {
		if err := nd.EnableGroups(); err != nil {
			t.Fatal(err)
		}
	}
	net.BootstrapAll()
	net.Run(5 * time.Millisecond)
	var changes []GroupChange
	net.Node(2).OnGroupChange(func(c GroupChange) { changes = append(changes, c) })
	g := GroupID(4)
	net.Node(0).JoinGroup(g)
	net.Run(10 * time.Millisecond)
	if err := net.Node(0).LeaveGroup(g); err != nil {
		t.Fatal(err)
	}
	net.Run(10 * time.Millisecond)
	if !net.Node(2).GroupView(g).Empty() {
		t.Fatalf("group view = %v after leave", net.Node(2).GroupView(g))
	}
	if len(changes) != 2 {
		t.Fatalf("group changes = %d, want join+leave", len(changes))
	}
	// Leave without enable errors.
	if err := net.Node(1).LeaveGroup(g); net.Node(1).st.Groups == nil && err != nil {
		// node 1 has groups enabled in this test; check a fresh network
		net2 := NewNetwork(DefaultConfig(), 1)
		if err := net2.Node(0).LeaveGroup(g); err == nil {
			t.Fatal("LeaveGroup without enable accepted")
		}
	}
}

func TestClockNowPanicsWithoutEnable(t *testing.T) {
	net := NewNetwork(DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("ClockNow without EnableClockSync should panic")
		}
	}()
	net.Node(0).ClockNow()
}

func TestOnGroupChangePanicsWithoutEnable(t *testing.T) {
	net := NewNetwork(DefaultConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("OnGroupChange without enable should panic")
		}
	}()
	net.Node(0).OnGroupChange(func(GroupChange) {})
}
