package redundancy

import (
	"fmt"
	"testing"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/canlayer"
	"canely/internal/fault"
	"canely/internal/sim"
)

// dualRig builds n nodes, each attached through a DualPort to two buses on
// one scheduler. injB injects faults on medium B (index 1) only.
type dualRig struct {
	sched  *sim.Scheduler
	busA   *bus.Bus
	busB   *bus.Bus
	duals  []*DualPort
	layers []*canlayer.Layer
}

func newDualRig(t *testing.T, n int, injA, injB fault.Injector) *dualRig {
	t.Helper()
	s := sim.NewScheduler()
	r := &dualRig{
		sched: s,
		busA:  bus.New(s, bus.Config{Injector: injA}),
		busB:  bus.New(s, bus.Config{Injector: injB}),
	}
	for i := 0; i < n; i++ {
		a := r.busA.Attach(can.NodeID(i))
		b := r.busB.Attach(can.NodeID(i))
		d := NewDualPort(s, a, b)
		r.duals = append(r.duals, d)
		r.layers = append(r.layers, canlayer.New(d))
	}
	return r
}

func TestDualPortFaultFreeSingleDeliveryStream(t *testing.T) {
	r := newDualRig(t, 3, nil, nil)
	var got []can.MID
	cnf := 0
	r.layers[1].HandleDataInd(func(m can.MID, _ []byte) { got = append(got, m) })
	r.layers[0].HandleDataCnf(func(can.MID) { cnf++ })
	for k := 0; k < 5; k++ {
		if err := r.layers[0].DataReq(can.DataSign(0, 0, uint8(k)), []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
		r.sched.Run()
	}
	// Five messages on two media: exactly five logical deliveries and
	// confirmations (no duplicates from the replica).
	if len(got) != 5 {
		t.Fatalf("deliveries = %d, want 5", len(got))
	}
	if cnf != 5 {
		t.Fatalf("confirms = %d, want 5", cnf)
	}
}

func TestDualPortSurvivesJammedActiveMedium(t *testing.T) {
	// Medium A corrupts every frame: receivers obtain traffic only via
	// medium B, and the stream must continue without a loss or a duplicate.
	jam := fault.NewScript(fault.Rule{
		Match:    fault.NewMatch(0),
		Decision: fault.Decision{Corrupt: true},
		Repeat:   true,
	})
	r := newDualRig(t, 3, jam, nil)
	var got [][]byte
	r.layers[2].HandleDataInd(func(_ can.MID, d []byte) {
		got = append(got, append([]byte(nil), d...))
	})
	for k := 0; k < 4; k++ {
		r.layers[0].DataReq(can.DataSign(0, 0, uint8(k)), []byte{byte(10 + k)})
		r.sched.RunFor(2 * time.Millisecond)
	}
	if len(got) != 4 {
		t.Fatalf("deliveries = %d, want 4 (stream must survive the jam)", len(got))
	}
}

func TestDualPortPartitionedMediumTransparent(t *testing.T) {
	// Medium A drops every frame at node 2 (partition-like): node 2 hears
	// the stream on B only, nodes 0/1 on both. Everyone keeps receiving
	// everything.
	cut := fault.NewScript(fault.Rule{
		Match:    fault.NewMatch(0),
		Decision: fault.Decision{InconsistentVictims: can.MakeSet(2)},
		Repeat:   true,
	})
	r := newDualRig(t, 3, cut, nil)
	counts := make([]int, 3)
	for i := 1; i < 3; i++ {
		i := i
		r.layers[i].HandleDataInd(func(can.MID, []byte) { counts[i]++ })
	}
	for k := 0; k < 4; k++ {
		r.layers[0].DataReq(can.DataSign(0, 0, uint8(k)), []byte{1})
		r.sched.RunFor(2 * time.Millisecond)
	}
	if counts[2] < 4 {
		t.Fatalf("partitioned node received %d, want >= 4", counts[2])
	}
	if counts[1] < 4 {
		t.Fatalf("healthy node received %d", counts[1])
	}
}

func TestDualPortRequiresMatchingIdentity(t *testing.T) {
	s := sim.NewScheduler()
	a := bus.New(s, bus.Config{}).Attach(1)
	b := bus.New(s, bus.Config{}).Attach(2)
	defer func() {
		if recover() == nil {
			t.Fatal("identity mismatch should panic")
		}
	}()
	NewDualPort(s, a, b)
}

func TestDualPortCrashSilencesBothMedia(t *testing.T) {
	r := newDualRig(t, 2, nil, nil)
	r.duals[0].Crash()
	if err := r.layers[0].DataReq(can.DataSign(0, 0, 1), nil); err == nil {
		t.Fatal("request after crash accepted")
	}
}

// The single-medium fault classes of [17], as injectors on a real bus.

// cut partitions a medium between nodes < at and nodes >= at: a frame
// reaches only the sender's side.
type cut struct{ at can.NodeID }

func (c cut) Decide(ctx fault.TxContext) fault.Decision {
	var far can.NodeSet
	for _, sender := range ctx.Senders.IDs() {
		for _, id := range ctx.Receivers.IDs() {
			if (id < c.at) != (sender < c.at) {
				far = far.Add(id)
			}
		}
	}
	return fault.Decision{InconsistentVictims: far}
}

// stuckDominant jams a medium: every frame is destroyed.
type stuckDominant struct{}

func (stuckDominant) Decide(fault.TxContext) fault.Decision {
	return fault.Decision{Corrupt: true}
}

// stuckRecessive is a dead medium: no frame ever reaches a receiver.
type stuckRecessive struct{}

func (stuckRecessive) Decide(ctx fault.TxContext) fault.Decision {
	return fault.Decision{InconsistentVictims: ctx.Receivers}
}

// stream has the nodes take turns requesting one data frame every
// spacing, frames in all starting with node first, drains the media for
// 50ms and returns, per node, how many copies of each frame it obtained
// (its own included: self-reception). A spacing of 10ms outlasts the 32
// retransmissions that take a sender bus-off on a faulty medium, so one
// frame is in flight at a time; shorter spacings overlap them, and 0
// requests every frame at once.
func (r *dualRig) stream(t *testing.T, first, frames int, spacing time.Duration) []map[byte]int {
	t.Helper()
	n := len(r.layers)
	copies := make([]map[byte]int, n)
	for i, l := range r.layers {
		i := i
		copies[i] = map[byte]int{}
		l.HandleDataInd(func(_ can.MID, d []byte) { copies[i][d[0]]++ })
	}
	for k := 0; k < frames; k++ {
		sender := (first + k) % n
		if err := r.layers[sender].DataReq(can.DataSign(0, can.NodeID(sender), uint8(k)), []byte{byte(k)}); err != nil {
			t.Fatalf("frame %d: node %d request refused: %v", k, sender, err)
		}
		r.sched.RunFor(spacing)
	}
	r.sched.RunFor(50 * time.Millisecond)
	return copies
}

// requireConnected fails unless every node obtained every frame.
func requireConnected(t *testing.T, got []map[byte]int, frames int) {
	t.Helper()
	for node, c := range got {
		if len(c) != frames {
			t.Fatalf("node %d obtained %d of %d frames: %v", node, len(c), frames, c)
		}
	}
}

func TestSingleMediumPartitionSplitsTheNetwork(t *testing.T) {
	// The failure mode CANELy must rule out: one medium, one cut. The
	// control for every dual-media test below — the injected cut does
	// split a network that has no replica to select.
	s := sim.NewScheduler()
	b := bus.New(s, bus.Config{Injector: cut{at: 3}})
	got := make([]int, 6)
	var sender *canlayer.Layer
	for i := range got {
		i := i
		l := canlayer.New(b.Attach(can.NodeID(i)))
		l.HandleDataInd(func(can.MID, []byte) { got[i]++ })
		if i == 1 {
			sender = l
		}
	}
	if err := sender.DataReq(can.DataSign(0, 1, 0), []byte{1}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(20 * time.Millisecond)
	for node, n := range got {
		switch {
		case node == 1: // never confirmed: the far side keeps signalling errors
		case node < 3 && n == 0:
			t.Fatalf("node %d on the sender's side should receive", node)
		case node >= 3 && n != 0:
			t.Fatalf("node %d across the cut must not receive", node)
		}
	}
}

func TestStuckRecessiveMediumTransparent(t *testing.T) {
	// A medium that is silent from the start: nothing it carries is ever
	// received, and nothing is lost.
	r := newDualRig(t, 4, stuckRecessive{}, nil)
	requireConnected(t, r.stream(t, 0, 8, 10*time.Millisecond), 8)
}

// midRun lets the first `after` transmissions of a medium through and
// applies the fault from then on.
type midRun struct {
	after int
	fault fault.Injector
}

func (m *midRun) Decide(ctx fault.TxContext) fault.Decision {
	if m.after > 0 {
		m.after--
		return fault.Decision{}
	}
	return m.fault.Decide(ctx)
}

func TestMidRunMediumFailure(t *testing.T) {
	r := newDualRig(t, 5, &midRun{after: 5, fault: cut{at: 2}}, nil)
	requireConnected(t, r.stream(t, 0, 15, 10*time.Millisecond), 15)
	if r.busA.Stats().FramesInconsistent == 0 {
		t.Fatal("medium A delivered everything — the cut never bit")
	}
}

func TestHealthyMediaNeverMasked(t *testing.T) {
	// Two healthy replicas deliver every frame at the same instant: each
	// node passes up exactly one copy of each.
	r := newDualRig(t, 4, nil, nil)
	got := r.stream(t, 0, 50, 10*time.Millisecond)
	requireConnected(t, got, 50)
	for node, c := range got {
		n := 0
		for _, k := range c {
			n += k
		}
		if n != 50 {
			t.Fatalf("node %d passed up %d deliveries of 50 frames: the replica duplicated", node, n)
		}
	}
}

// Property: with two media, ANY single-medium fault — whichever replica it
// hits, wherever it is cut, whoever sends first, however closely the
// frames follow each other — leaves the network connected on every
// broadcast: the paper's footnote-4 guarantee.
func TestAnySingleMediumFaultToleratedProperty(t *testing.T) {
	faults := []struct {
		name string
		inj  fault.Injector
	}{{"stuck-dominant", stuckDominant{}}, {"stuck-recessive", stuckRecessive{}}}
	for at := can.NodeID(1); at < 6; at++ {
		faults = append(faults, struct {
			name string
			inj  fault.Injector
		}{fmt.Sprintf("cut@%d", at), cut{at: at}})
	}
	for _, f := range faults {
		for medium := 0; medium < 2; medium++ {
			t.Run(fmt.Sprintf("%s/medium%d", f.name, medium), func(t *testing.T) {
				var injs [2]fault.Injector
				injs[medium] = f.inj
				for _, spacing := range []time.Duration{10 * time.Millisecond, 2 * time.Millisecond, 0} {
					name := spacing.String()
					if spacing == 0 {
						name = "back-to-back"
					}
					t.Run(name, func(t *testing.T) {
						for first := 0; first < 6; first++ {
							t.Logf("first sender %d", first)
							r := newDualRig(t, 6, injs[0], injs[1])
							requireConnected(t, r.stream(t, first, 12, spacing), 12)
						}
					})
				}
			})
		}
	}
}
