package datagram

// The tests audit the substrate against the stack.Medium / stack.Port
// contract the two bus substrates established — Elapsed monotonicity
// including the propagation floor, crash (port close) idempotence, mailbox
// replacement, abort semantics; the attach discipline and the
// substrate-independent form of the rest are in internal/stack's
// TestMediumConformance — plus the properties this substrate adds:
// per-seed determinism, independent per-link sampling, unicast gossip
// routing over lossy broadcast fan-out.

import (
	"testing"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/sim"
)

// rec is a recording bus.Handler.
type rec struct {
	frames   []can.Frame
	own      int
	confirms int
}

func (r *rec) OnFrame(f can.Frame, own bool) {
	if own {
		r.own++
		return
	}
	r.frames = append(r.frames, f)
}
func (r *rec) OnConfirm(can.Frame) { r.confirms++ }
func (r *rec) OnBusOff()           {}

func dataFrame(src can.NodeID, payload ...byte) can.Frame {
	f := can.Frame{ID: can.DataSign(0, src, 0).Encode()}
	f.SetPayload(payload)
	return f
}

func gossipFrame(dest, src can.NodeID, payload ...byte) can.Frame {
	f := can.Frame{ID: can.GossipSign(dest, src, 0).Encode()}
	f.SetPayload(payload)
	return f
}

func newNet(t *testing.T, cfg Config) (*sim.Scheduler, *Net) {
	t.Helper()
	sched := sim.NewScheduler()
	return sched, New(sched, cfg)
}

// TestBroadcastFanOut: a non-gossip frame reaches every other attached
// node exactly once on lossless links; the sender sees loopback + confirm
// but no foreign indication.
func TestBroadcastFanOut(t *testing.T) {
	sched, n := newNet(t, Config{})
	hs := make([]*rec, 4)
	ports := make([]*Port, 4)
	for i := range hs {
		hs[i] = &rec{}
		ports[i] = n.Attach(can.NodeID(i))
		ports[i].SetHandler(hs[i])
	}
	if err := ports[1].Request(dataFrame(1, 0xAB)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if hs[1].own != 1 || hs[1].confirms != 1 || len(hs[1].frames) != 0 {
		t.Errorf("sender saw own=%d confirms=%d foreign=%d, want 1/1/0", hs[1].own, hs[1].confirms, len(hs[1].frames))
	}
	for _, i := range []int{0, 2, 3} {
		if len(hs[i].frames) != 1 {
			t.Errorf("node %d received %d copies, want 1", i, len(hs[i].frames))
		}
	}
	if got := n.Stats().FramesOK; got != 1 {
		t.Errorf("FramesOK %d, want 1", got)
	}
}

// TestGossipUnicast: a gossip-typed frame reaches only its destination.
func TestGossipUnicast(t *testing.T) {
	sched, n := newNet(t, Config{})
	hs := make([]*rec, 3)
	for i := range hs {
		hs[i] = &rec{}
		n.Attach(can.NodeID(i)).SetHandler(hs[i])
	}
	if err := n.ports[0].Request(gossipFrame(2, 0, 0x01)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(hs[1].frames) != 0 {
		t.Error("bystander received a unicast gossip frame")
	}
	if len(hs[2].frames) != 1 {
		t.Errorf("destination received %d copies, want 1", len(hs[2].frames))
	}
}

// TestElapsedMonotone: Elapsed follows the scheduler clock and includes
// serialization plus link delay.
func TestElapsedMonotone(t *testing.T) {
	sched, n := newNet(t, Config{Link: LinkParams{DelayMin: time.Millisecond}})
	h := &rec{}
	n.Attach(0)
	n.Attach(1).SetHandler(h)
	if n.Elapsed() != 0 {
		t.Fatalf("fresh network elapsed %v", n.Elapsed())
	}
	last := n.Elapsed()
	if err := n.ports[0].Request(dataFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	for sched.Step() {
		if now := n.Elapsed(); now < last {
			t.Fatalf("Elapsed moved backwards: %v -> %v", last, now)
		} else {
			last = now
		}
	}
	if len(h.frames) != 1 {
		t.Fatalf("frame not delivered")
	}
	if n.Elapsed() < time.Millisecond {
		t.Errorf("Elapsed %v does not include the propagation floor", n.Elapsed())
	}
}

// TestMailboxReplace: a waiting request with the same (ID, RTR) is
// replaced in place; the serializing frame is not.
func TestMailboxReplace(t *testing.T) {
	sched, n := newNet(t, Config{})
	h := &rec{}
	n.Attach(0)
	n.Attach(1).SetHandler(h)
	p := n.ports[0]
	blocker := dataFrame(0, 0xFF) // heads the queue, serializes first
	if err := p.Request(blocker); err != nil {
		t.Fatal(err)
	}
	f := can.Frame{ID: can.DataSign(1, 0, 7).Encode()}
	f.SetPayload([]byte{1})
	if err := p.Request(f); err != nil {
		t.Fatal(err)
	}
	f2 := f
	f2.SetPayload([]byte{2})
	if err := p.Request(f2); err != nil {
		t.Fatal(err)
	}
	if p.QueueLen() != 1 {
		t.Fatalf("queue length %d after replacement, want 1", p.QueueLen())
	}
	sched.Run()
	if len(h.frames) != 2 {
		t.Fatalf("receiver got %d frames, want 2 (blocker + replaced)", len(h.frames))
	}
	if got := h.frames[1].Payload(); len(got) != 1 || got[0] != 2 {
		t.Errorf("replaced mailbox delivered payload %v, want [2]", got)
	}
}

// TestCrashCannotRecallInFlight: a copy already in flight still arrives
// after the sender crashes; a copy not yet serialized never leaves.
func TestCrashCannotRecallInFlight(t *testing.T) {
	sched, n := newNet(t, Config{Link: LinkParams{DelayMin: time.Millisecond}})
	h := &rec{}
	n.Attach(0)
	n.Attach(1).SetHandler(h)
	p := n.ports[0]
	if err := p.Request(dataFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Request(can.Frame{ID: can.DataSign(1, 0, 7).Encode()}); err != nil {
		t.Fatal(err)
	}
	// Step to the instant the first frame finishes serializing — its copy
	// is in flight (1 ms link delay), the second is still on the wire —
	// then crash the sender.
	for sched.Step() && p.TxSuccesses() < 1 {
	}
	if p.TxSuccesses() != 1 {
		t.Fatalf("first frame never serialized (tx=%d)", p.TxSuccesses())
	}
	p.Crash()
	sched.Run()
	if len(h.frames) != 1 {
		t.Errorf("receiver got %d frames, want exactly the in-flight copy", len(h.frames))
	}
}

// TestSeedDeterminism: identical seeds reproduce drops, duplicates and
// delivery counts exactly; different seeds diverge.
func TestSeedDeterminism(t *testing.T) {
	lossy := LinkParams{Drop: 0.3, DelayJitter: time.Millisecond, Duplicate: 0.2}
	run := func(seed int64) (delivered int, s bus.Stats) {
		sched := sim.NewScheduler()
		n := New(sched, Config{Seed: seed, Link: lossy})
		h := &rec{}
		n.Attach(0)
		n.Attach(1).SetHandler(h)
		for i := 0; i < 50; i++ {
			f := can.Frame{ID: can.DataSign(0, 0, uint8(i)).Encode()}
			if err := n.ports[0].Request(f); err != nil {
				t.Fatal(err)
			}
			sched.Run()
		}
		return len(h.frames), n.Stats()
	}
	d1, s1 := run(7)
	d2, s2 := run(7)
	if d1 != d2 || s1.FramesError != s2.FramesError || s1.FramesInconsistent != s2.FramesInconsistent {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v", d1, s1, d2, s2)
	}
	if s1.FramesError == 0 || s1.FramesInconsistent == 0 {
		t.Fatalf("lossy run lost nothing (drops=%d dups=%d): sampling inert", s1.FramesError, s1.FramesInconsistent)
	}
	d3, s3 := run(8)
	if d1 == d3 && s1.FramesError == s3.FramesError && s1.FramesInconsistent == s3.FramesInconsistent {
		t.Error("different seeds reproduced identical loss patterns")
	}
}

// TestPerLinkOverride: PerLink pins one ordered link to certain loss while
// the reverse direction stays lossless.
func TestPerLinkOverride(t *testing.T) {
	sched := sim.NewScheduler()
	n := New(sched, Config{PerLink: func(from, to can.NodeID) LinkParams {
		if from == 0 && to == 1 {
			return LinkParams{Drop: 0.999999999}
		}
		return LinkParams{}
	}})
	h0, h1 := &rec{}, &rec{}
	n.Attach(0).SetHandler(h0)
	n.Attach(1).SetHandler(h1)
	if err := n.ports[0].Request(dataFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := n.ports[1].Request(dataFrame(1, 2)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(h1.frames) != 0 {
		t.Error("near-certain drop delivered on the 0->1 link")
	}
	if len(h0.frames) != 1 {
		t.Error("lossless 1->0 link lost the frame")
	}
}

// TestStatsSynthesis: the snapshot carries serialized bits per type and
// the fault-confinement fields hold the datagram analogues.
func TestStatsSynthesis(t *testing.T) {
	sched, n := newNet(t, Config{})
	n.Attach(0)
	n.Attach(1).SetHandler(&rec{})
	p := n.ports[0]
	if err := p.Request(gossipFrame(1, 0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	s := n.Stats()
	if s.FramesOK != 1 || s.BitsBusy == 0 {
		t.Errorf("stats %+v missing serialized traffic", s)
	}
	if s.BitsByType[can.TypeGossip] == 0 {
		t.Error("gossip bits not classified by type")
	}
	if st := p.State(); st != bus.ErrorActive {
		t.Errorf("state %v, want permanently error-active", st)
	}
	if tec, rec := p.Counters(); tec != 0 || rec != 0 {
		t.Errorf("fault counters (%d,%d), want (0,0)", tec, rec)
	}
}
