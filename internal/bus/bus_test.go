package bus

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/fault"
	"canely/internal/sim"
)

// recorder is a Handler that records everything it is told.
type recorder struct {
	frames   []can.Frame
	own      []bool
	confirms []can.Frame
	busOff   bool
}

func (r *recorder) OnFrame(f can.Frame, own bool) {
	r.frames = append(r.frames, f)
	r.own = append(r.own, own)
}
func (r *recorder) OnConfirm(f can.Frame) { r.confirms = append(r.confirms, f) }
func (r *recorder) OnBusOff()             { r.busOff = true }

// rig builds a bus with n attached, handled nodes.
type rig struct {
	sched *sim.Scheduler
	bus   *Bus
	ports []*Port
	recs  []*recorder
}

func newRig(t *testing.T, n int, inj fault.Injector) *rig {
	t.Helper()
	s := sim.NewScheduler()
	b := New(s, Config{Injector: inj})
	r := &rig{sched: s, bus: b}
	for i := 0; i < n; i++ {
		p := b.Attach(can.NodeID(i))
		rec := &recorder{}
		p.SetHandler(rec)
		r.ports = append(r.ports, p)
		r.recs = append(r.recs, rec)
	}
	return r
}

func dataFrame(src can.NodeID, ref uint8) can.Frame {
	f := can.Frame{ID: can.DataSign(0, src, ref).Encode()}
	f.SetPayload([]byte{byte(src), ref})
	return f
}

func rtrFrame(mid can.MID) can.Frame {
	return can.Frame{ID: mid.Encode(), RTR: true}
}

func TestBroadcastDelivery(t *testing.T) {
	r := newRig(t, 4, nil)
	f := dataFrame(0, 1)
	if err := r.ports[0].Request(f); err != nil {
		t.Fatal(err)
	}
	r.sched.Run()

	// Sender gets self-reception + confirm; receivers get the frame once.
	if len(r.recs[0].frames) != 1 || !r.recs[0].own[0] {
		t.Fatalf("sender self-reception wrong: %v %v", r.recs[0].frames, r.recs[0].own)
	}
	if len(r.recs[0].confirms) != 1 {
		t.Fatalf("sender confirms = %d", len(r.recs[0].confirms))
	}
	for i := 1; i < 4; i++ {
		if len(r.recs[i].frames) != 1 || r.recs[i].own[0] {
			t.Fatalf("receiver %d frames wrong", i)
		}
		if r.recs[i].frames[0].ID != f.ID {
			t.Fatal("MCAN1 violated: receiver saw a different frame")
		}
	}
}

func TestTransmissionTiming(t *testing.T) {
	r := newRig(t, 2, nil)
	f := dataFrame(0, 1)
	r.ports[0].Request(f)
	r.sched.Run()
	want := can.Rate1Mbps.DurationOf(can.SlotBits(f))
	if got := time.Duration(r.sched.Now()); got != want {
		t.Fatalf("bus busy for %v, want %v (frame+IFS)", got, want)
	}
}

func TestArbitrationLowestIDWins(t *testing.T) {
	r := newRig(t, 3, nil)
	hi := dataFrame(1, 1) // DATA type: low priority
	lo := rtrFrame(can.FDASign(5))
	// Queue both before the bus starts: same instant.
	r.ports[1].Request(hi)
	r.ports[2].Request(lo)
	r.sched.Run()
	// Receiver 0 must see FDA first, DATA second.
	if len(r.recs[0].frames) != 2 {
		t.Fatalf("frames = %d", len(r.recs[0].frames))
	}
	if r.recs[0].frames[0].ID != lo.ID || r.recs[0].frames[1].ID != hi.ID {
		t.Fatal("arbitration order wrong: lowest identifier must win")
	}
}

func TestRemoteFrameClustering(t *testing.T) {
	r := newRig(t, 4, nil)
	f := rtrFrame(can.FDASign(9))
	r.ports[0].Request(f)
	r.ports[1].Request(f)
	r.sched.Run()
	// One physical frame: both senders confirmed, receivers saw it once.
	if len(r.recs[0].confirms) != 1 || len(r.recs[1].confirms) != 1 {
		t.Fatal("both clustered senders must be confirmed")
	}
	if len(r.recs[2].frames) != 1 || len(r.recs[3].frames) != 1 {
		t.Fatalf("receivers must see exactly one frame, got %d/%d",
			len(r.recs[2].frames), len(r.recs[3].frames))
	}
	if got := r.bus.Stats().FramesOK; got != 1 {
		t.Fatalf("physical frames = %d, want 1 (wired-AND)", got)
	}
}

func TestDataFramesNeverCluster(t *testing.T) {
	r := newRig(t, 3, nil)
	r.ports[0].Request(dataFrame(0, 1))
	r.ports[1].Request(dataFrame(1, 1))
	r.sched.Run()
	if got := r.bus.Stats().FramesOK; got != 2 {
		t.Fatalf("physical frames = %d, want 2", got)
	}
}

func TestConsistentCorruptionMaskedByRetransmission(t *testing.T) {
	script := fault.NewScript(fault.Rule{
		Match:    fault.NewMatch(can.TypeData),
		Decision: fault.Decision{Corrupt: true},
	})
	r := newRig(t, 3, script)
	r.ports[0].Request(dataFrame(0, 7))
	r.sched.Run()
	// LCAN1/LCAN2: the message is eventually delivered everywhere, exactly
	// once (no one accepted the corrupted attempt).
	for i := 1; i < 3; i++ {
		if len(r.recs[i].frames) != 1 {
			t.Fatalf("receiver %d got %d frames", i, len(r.recs[i].frames))
		}
	}
	st := r.bus.Stats()
	if st.FramesError != 1 || st.FramesOK != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Inaccessibility == 0 {
		t.Fatal("error recovery must be accounted as inaccessibility")
	}
}

func TestInconsistentOmissionDuplicates(t *testing.T) {
	// Victim 2 misses the first attempt; sender retransmits; node 1 ends
	// with a duplicate (LCAN3 at-least-once), node 2 with one copy.
	script := fault.NewScript(fault.Rule{
		Match:    fault.NewMatch(can.TypeData),
		Decision: fault.Decision{InconsistentVictims: can.MakeSet(2)},
	})
	r := newRig(t, 3, script)
	r.ports[0].Request(dataFrame(0, 7))
	r.sched.Run()
	if len(r.recs[1].frames) != 2 {
		t.Fatalf("non-victim should hold a duplicate, got %d", len(r.recs[1].frames))
	}
	if len(r.recs[2].frames) != 1 {
		t.Fatalf("victim should get the retransmission, got %d", len(r.recs[2].frames))
	}
	if len(r.recs[0].confirms) != 1 {
		t.Fatal("sender should confirm once, on the successful attempt")
	}
}

func TestInconsistentOmissionWithSenderCrash(t *testing.T) {
	// The full failure scenario of [18]: sender dies before retransmitting;
	// node 1 has the message, node 2 never gets it.
	script := fault.NewScript(fault.Rule{
		Match: fault.NewMatch(can.TypeData),
		Decision: fault.Decision{
			InconsistentVictims: can.MakeSet(2),
			CrashSenders:        true,
		},
	})
	r := newRig(t, 3, script)
	r.ports[0].Request(dataFrame(0, 7))
	r.sched.Run()
	if len(r.recs[1].frames) != 1 {
		t.Fatalf("non-victim frames = %d", len(r.recs[1].frames))
	}
	if len(r.recs[2].frames) != 0 {
		t.Fatalf("victim must never receive (inconsistent omission), got %d", len(r.recs[2].frames))
	}
	if r.ports[0].Alive() {
		t.Fatal("sender should have crashed")
	}
	if len(r.recs[0].confirms) != 0 {
		t.Fatal("crashed sender must not be confirmed")
	}
}

func TestCrashStopsReception(t *testing.T) {
	r := newRig(t, 3, nil)
	r.ports[2].Crash()
	r.ports[0].Request(dataFrame(0, 1))
	r.sched.Run()
	if len(r.recs[2].frames) != 0 {
		t.Fatal("crashed node received a frame")
	}
	if r.bus.AliveSet() != can.MakeSet(0, 1) {
		t.Fatalf("AliveSet = %v", r.bus.AliveSet())
	}
}

func TestRequestReplacesSameID(t *testing.T) {
	r := newRig(t, 2, nil)
	blocker := rtrFrame(can.FDASign(0))
	r.ports[1].Request(blocker) // occupies the wire first
	f := dataFrame(0, 1)
	f.SetPayload([]byte{1})
	r.ports[0].Request(f)
	r.sched.Step() // start blocker transmission
	g := f
	g.SetPayload([]byte{2})
	r.ports[0].Request(g) // replaces the pending f
	r.sched.Run()
	var got []can.Frame
	for _, fr := range r.recs[1].frames {
		if !fr.RTR {
			got = append(got, fr)
		}
	}
	if len(got) != 1 || got[0].Data[0] != 2 {
		t.Fatalf("replacement failed: %v", got)
	}
}

func TestBusOffAfterRepeatedTxErrors(t *testing.T) {
	script := fault.NewScript(fault.Rule{
		Match:    fault.NewMatch(can.TypeData),
		Decision: fault.Decision{Corrupt: true},
		Repeat:   true,
	})
	r := newRig(t, 2, script)
	r.ports[0].Request(dataFrame(0, 1))
	// TEC += 8 per error: 32 failed attempts reach the bus-off limit 256.
	r.sched.RunUntil(sim.Time(time.Second))
	if r.ports[0].State() != BusOff {
		tec, _ := r.ports[0].Counters()
		t.Fatalf("state = %v (tec=%d), want bus-off", r.ports[0].State(), tec)
	}
	if !r.recs[0].busOff {
		t.Fatal("handler must be told about bus-off")
	}
	if r.ports[0].Operational() {
		t.Fatal("bus-off controller must not be operational")
	}
	// The weak-fail-silent enforcement: the defective node stopped
	// babbling, so the bus went idle before the deadline.
	if r.sched.Pending() != 0 && r.bus.Stats().FramesError >= 33 {
		t.Fatal("bus-off node kept transmitting")
	}
}

func TestErrorPassiveTransition(t *testing.T) {
	script := fault.NewScript(fault.Rule{
		Match:      fault.NewMatch(can.TypeData),
		Decision:   fault.Decision{Corrupt: true},
		Repeat:     true,
		Occurrence: 1,
	})
	r := newRig(t, 2, script)
	r.ports[0].Request(dataFrame(0, 1))
	// Run 16 failed attempts: TEC = 128 -> error passive.
	for i := 0; i < 16*3+2; i++ {
		if !r.sched.Step() {
			break
		}
	}
	tec, _ := r.ports[0].Counters()
	if tec < PassiveLimit {
		t.Skipf("tec=%d; stepping did not reach passive yet", tec)
	}
	if r.ports[0].State() != ErrorPassive && r.ports[0].State() != BusOff {
		t.Fatalf("state = %v", r.ports[0].State())
	}
}

func TestStatsPerTypeAccounting(t *testing.T) {
	r := newRig(t, 2, nil)
	els := rtrFrame(can.ELSSign(0))
	r.ports[0].Request(els)
	r.sched.Run()
	st := r.bus.Stats()
	wantBits := int64(can.SlotBits(els))
	if st.BitsBusy != wantBits {
		t.Fatalf("BitsBusy = %d, want %d", st.BitsBusy, wantBits)
	}
	if st.BitsByType[can.TypeELS] != wantBits {
		t.Fatalf("ELS bits = %d, want %d", st.BitsByType[can.TypeELS], wantBits)
	}
	u := st.TypeUtilization(can.Rate1Mbps, r.bus.Elapsed(), can.TypeELS)
	if u <= 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f, want ~1 (bus fully busy)", u)
	}
}

func TestStatsSubWindow(t *testing.T) {
	r := newRig(t, 2, nil)
	r.ports[0].Request(rtrFrame(can.ELSSign(0)))
	r.sched.Run()
	before := r.bus.Stats()
	r.ports[0].Request(rtrFrame(can.ELSSign(0)))
	r.sched.Run()
	window := r.bus.Stats().Sub(before)
	if window.FramesOK != 1 {
		t.Fatalf("windowed frames = %d, want 1", window.FramesOK)
	}
	if window.BitsBusy != before.BitsBusy {
		t.Fatal("two identical frames should cost the same bits")
	}
}

func TestIdentifierCollisionPanics(t *testing.T) {
	r := newRig(t, 2, nil)
	a := dataFrame(0, 1)
	b := a // same identifier, different payload, different sender
	b.SetPayload([]byte{0xFF})
	r.ports[0].Request(a)
	r.ports[1].Request(b)
	defer func() {
		if recover() == nil {
			t.Fatal("distinct frames with one identifier should panic")
		}
	}()
	r.sched.Run()
}

func TestBackToBackFramesKeepInterframeSpace(t *testing.T) {
	r := newRig(t, 2, nil)
	f1 := dataFrame(0, 1)
	f2 := dataFrame(0, 2)
	r.ports[0].Request(f1)
	r.ports[0].Request(f2)
	r.sched.Run()
	want := can.Rate1Mbps.DurationOf(can.SlotBits(f1) + can.SlotBits(f2))
	if got := time.Duration(r.sched.Now()); got != want {
		t.Fatalf("two frames took %v, want %v", got, want)
	}
}

func TestSameInstantRequestsCluster(t *testing.T) {
	// Requests submitted from events at the same instant must cluster even
	// though their submissions are sequential.
	r := newRig(t, 4, nil)
	f := rtrFrame(can.FDASign(2))
	at := sim.Time(time.Millisecond)
	for i := 0; i < 3; i++ {
		p := r.ports[i]
		r.sched.At(at, func() { p.Request(f) })
	}
	r.sched.Run()
	if got := r.bus.Stats().FramesOK; got != 1 {
		t.Fatalf("physical frames = %d, want 1", got)
	}
	if len(r.recs[3].frames) != 1 {
		t.Fatalf("receiver saw %d frames", len(r.recs[3].frames))
	}
}

func TestMidTransmissionRequestWaits(t *testing.T) {
	r := newRig(t, 3, nil)
	f := rtrFrame(can.FDASign(2))
	r.ports[0].Request(f)
	r.sched.Step() // arbitration: node 0 alone on the wire
	// Node 1 requests the identical remote frame mid-transmission: it must
	// NOT cluster (it missed arbitration) and transmits its own copy later.
	r.ports[1].Request(f)
	r.sched.Run()
	if got := r.bus.Stats().FramesOK; got != 2 {
		t.Fatalf("physical frames = %d, want 2 (late request cannot cluster)", got)
	}
	// Receiver 2 sees a duplicate — exactly what FDA's ndup counters absorb.
	if len(r.recs[2].frames) != 2 {
		t.Fatalf("receiver frames = %d", len(r.recs[2].frames))
	}
}

func TestErrorPassiveSuspendTransmission(t *testing.T) {
	// Drive node 0 error-passive (17 scripted corruptions leave TEC at
	// 17*8-1 = 135 after the final success), then race it against an
	// error-active node: the suspend-transmission penalty must let the
	// active node's LOWER-priority frame through first once the passive
	// node has just transmitted.
	rules := make([]fault.Rule, 0, 17)
	for i := 0; i < 17; i++ {
		rules = append(rules, fault.Rule{
			Match:    fault.Match{Type: can.TypeData, Param: fault.AnyParam, Sender: 0},
			Decision: fault.Decision{Corrupt: true},
		})
	}
	script := fault.NewScript(rules...)
	r := newRig(t, 3, script)
	r.ports[0].Request(dataFrame(0, 1))
	r.sched.Run() // 16 failures then the 17th attempt succeeds
	if r.ports[0].State() != ErrorPassive {
		tec, _ := r.ports[0].Counters()
		t.Fatalf("state = %v (tec=%d), want error-passive", r.ports[0].State(), tec)
	}

	// Both nodes queue immediately after the passive node's success: the
	// passive node has the higher-priority frame (FDA) but must wait the
	// suspend penalty, so the active node's DATA frame wins the next slot.
	r.ports[0].Request(rtrFrame(can.FDASign(1)))
	r.ports[1].Request(dataFrame(1, 9))
	var order []uint32
	base := len(r.recs[2].frames)
	r.sched.Run()
	for _, f := range r.recs[2].frames[base:] {
		order = append(order, f.ID)
	}
	if len(order) != 2 {
		t.Fatalf("frames observed = %d", len(order))
	}
	if order[0] != dataFrame(1, 9).ID {
		t.Fatalf("suspend-transmission not enforced: order = %#x", order)
	}
	if order[1] != rtrFrame(can.FDASign(1)).ID {
		t.Fatalf("suspended frame never followed: order = %#x", order)
	}
}

func TestSuspendOnlyAppliesToPassiveNodes(t *testing.T) {
	r := newRig(t, 3, nil)
	// An error-active node transmits back-to-back with no extra gap.
	f1, f2 := dataFrame(0, 1), dataFrame(0, 2)
	r.ports[0].Request(f1)
	r.ports[0].Request(f2)
	r.sched.Run()
	want := can.Rate1Mbps.DurationOf(can.SlotBits(f1) + can.SlotBits(f2))
	if got := time.Duration(r.sched.Now()); got != want {
		t.Fatalf("active node delayed: %v, want %v", got, want)
	}
}

func TestOverloadFramesDelayNextFrame(t *testing.T) {
	script := fault.NewScript(fault.Rule{
		Match:    fault.NewMatch(can.TypeData),
		Decision: fault.Decision{OverloadFrames: 2},
	})
	r := newRig(t, 2, script)
	f1, f2 := dataFrame(0, 1), dataFrame(0, 2)
	r.ports[0].Request(f1)
	r.ports[0].Request(f2)
	r.sched.Run()
	// Both frames delivered, but two overload frames sit between them.
	if len(r.recs[1].frames) != 2 {
		t.Fatalf("frames = %d", len(r.recs[1].frames))
	}
	want := can.Rate1Mbps.DurationOf(
		can.SlotBits(f1) + 2*can.OverloadFrameMaxBits + can.SlotBits(f2))
	if got := time.Duration(r.sched.Now()); got != want {
		t.Fatalf("elapsed %v, want %v (overload accounted)", got, want)
	}
	// Overload time counts as inaccessibility.
	if r.bus.Stats().Inaccessibility != can.Rate1Mbps.DurationOf(2*can.OverloadFrameMaxBits) {
		t.Fatalf("inaccessibility = %v", r.bus.Stats().Inaccessibility)
	}
}

func TestOverloadFramesClampedToTwo(t *testing.T) {
	script := fault.NewScript(fault.Rule{
		Match:    fault.NewMatch(can.TypeData),
		Decision: fault.Decision{OverloadFrames: 9},
	})
	r := newRig(t, 2, script)
	f := dataFrame(0, 1)
	r.ports[0].Request(f)
	r.sched.Run()
	want := can.Rate1Mbps.DurationOf(can.SlotBits(f) + 2*can.OverloadFrameMaxBits)
	if got := time.Duration(r.sched.Now()); got != want {
		t.Fatalf("elapsed %v, want %v (clamp to 2 overload frames)", got, want)
	}
}

func TestBusAccessors(t *testing.T) {
	r := newRig(t, 2, nil)
	if r.bus.Rate() != can.Rate1Mbps {
		t.Fatal("Rate accessor wrong")
	}
	if r.bus.Scheduler() != r.sched {
		t.Fatal("Scheduler accessor wrong")
	}
	if r.bus.Port(1) != r.ports[1] || r.bus.Port(60) != nil {
		t.Fatal("Port accessor wrong")
	}
	if r.ports[1].ID() != 1 {
		t.Fatal("ID accessor wrong")
	}
	f := dataFrame(0, 1)
	blocker := rtrFrame(can.FDASign(0))
	r.ports[1].Request(blocker)
	r.sched.Step() // blocker on the wire
	r.ports[0].Request(f)
	if !r.ports[0].Pending(f.ID) || r.ports[0].Pending(12345) {
		t.Fatal("Pending accessor wrong")
	}
	if r.ports[0].QueueLen() != 1 {
		t.Fatalf("QueueLen = %d", r.ports[0].QueueLen())
	}
	r.sched.Run()
	if r.ports[0].TxSuccesses() != 1 {
		t.Fatalf("TxSuccesses = %d", r.ports[0].TxSuccesses())
	}
	if r.ports[0].RxSuccesses() != 1 { // the blocker frame
		t.Fatalf("RxSuccesses = %d", r.ports[0].RxSuccesses())
	}
	for _, s := range []ControllerState{ErrorActive, ErrorPassive, BusOff} {
		if s.String() == "" {
			t.Fatal("state String empty")
		}
	}
	st := r.bus.Stats()
	if u := st.Utilization(can.Rate1Mbps, time.Duration(r.sched.Now())); u <= 0.99 {
		t.Fatalf("utilization = %f for a saturated run", u)
	}
	if st.Utilization(can.Rate1Mbps, 0) != 0 {
		t.Fatal("zero-window utilization should be 0")
	}
	if st.String() == "" {
		t.Fatal("stats String empty")
	}
}
