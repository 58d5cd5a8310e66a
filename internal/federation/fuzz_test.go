package federation

// FuzzFederationCore drives a three-gateway federation — gateway 0 owning
// segment 0, gateways 1 and 2 redundantly owning segment 1 — through
// arbitrary interleavings of time, digest delivery, digest loss, gateway
// crashes and local membership churn. Because the cores are sans-I/O the
// fuzzer needs no bus: a minimal binding per gateway tracks the two logical
// timers and collects outgoing digests, and the fuzz ops decide which of
// them are delivered where.
//
// Checked invariants:
//
//   - Step never panics and never arms a non-positive timer delay.
//   - A gateway's own live segment (non-empty local view) is always in its
//     own site view once bootstrapped.
//   - Agreement: after the fault-free stabilization epilogue (3·Tstale of
//     lockstep announce/deliver rounds), every surviving gateway holds the
//     same site view, and that view is exactly the set of segments that
//     still have a live gateway and a non-empty membership view — no two
//     live segments disagree on a stabilized site view.

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

const (
	fuzzTann   = 10 * time.Millisecond
	fuzzTstale = 40 * time.Millisecond
)

// fedBinding is a minimal timer-and-outbox binding over one pure core.
type fedBinding struct {
	core  *Core
	alive bool
	now   sim.Time

	announceAt    sim.Time
	announceArmed bool
	scanAt        sim.Time
	scanArmed     bool

	// out collects emitted digests until a fuzz op delivers or drops them.
	out []proto.Command
}

func newFedBinding(t *testing.T, gw can.NodeID, locals ...can.NodeID) *fedBinding {
	t.Helper()
	core, err := New(Config{Gateway: gw, Locals: can.MakeSet(locals...), Tann: fuzzTann, Tstale: fuzzTstale})
	if err != nil {
		t.Fatal(err)
	}
	return &fedBinding{core: core, alive: true}
}

func (b *fedBinding) step(t *testing.T, ev proto.Event) {
	t.Helper()
	ev.At = b.now
	for _, c := range fptest.Emit(b.core, ev) {
		switch c.Kind {
		case proto.CmdSetTimer:
			if c.Delay <= 0 {
				t.Fatalf("non-positive timer delay in %v (event %v)", c, ev)
			}
			switch c.Timer {
			case proto.TimerFedAnnounce:
				b.announceAt, b.announceArmed = b.now.Add(c.Delay), true
			case proto.TimerFedScan:
				b.scanAt, b.scanArmed = b.now.Add(c.Delay), true
			}
		case proto.CmdCancelTimer:
			switch c.Timer {
			case proto.TimerFedAnnounce:
				b.announceArmed = false
			case proto.TimerFedScan:
				b.scanArmed = false
			}
		case proto.CmdSendData:
			b.out = append(b.out, c)
		}
	}
}

// advance moves the binding's clock to the target instant, firing due
// timers in deadline order.
func (b *fedBinding) advance(t *testing.T, to sim.Time) {
	for b.alive {
		next, timer := sim.Never, proto.TimerFedAnnounce
		if b.announceArmed && b.announceAt < next {
			next, timer = b.announceAt, proto.TimerFedAnnounce
		}
		if b.scanArmed && b.scanAt < next {
			next, timer = b.scanAt, proto.TimerFedScan
		}
		if next > to {
			break
		}
		b.now = next
		if timer == proto.TimerFedAnnounce {
			b.announceArmed = false
		} else {
			b.scanArmed = false
		}
		b.step(t, proto.Event{Kind: proto.EvTimerFired, Timer: timer})
	}
	if to > b.now {
		b.now = to
	}
}

// flush delivers the binding's pending digests to every other live binding
// and clears the outbox.
func (b *fedBinding) flush(t *testing.T, others []*fedBinding) {
	for _, c := range b.out {
		for _, o := range others {
			if o == b || !o.alive {
				continue
			}
			o.step(t, proto.Event{Kind: proto.EvDataInd, MID: c.MID}.WithPayload(c.Payload()))
		}
	}
	b.out = nil
}

func FuzzFederationCore(f *testing.F) {
	f.Add([]byte{0, 20, 1, 0, 2, 0, 3, 0, 0, 50})       // settle, exchange, settle
	f.Add([]byte{7, 0, 0, 60, 2, 0, 3, 0})              // crash the segment-1 leader
	f.Add([]byte{9, 0, 0, 30, 1, 0, 9, 7, 0, 30, 1, 0}) // segment-1 churn incl. death
	f.Add([]byte{4, 0, 0, 90, 6, 0, 8, 0, 0, 90, 1, 0}) // losses + backup crash
	f.Fuzz(func(t *testing.T, data []byte) {
		a := newFedBinding(t, 0, 0) // sole gateway of segment 0
		b := newFedBinding(t, 1, 1) // segment-1 leader
		c := newFedBinding(t, 2, 1) // segment-1 backup
		all := []*fedBinding{a, b, c}

		seg0 := can.MakeSet(0, 1, 2)
		seg1 := can.MakeSet(3, 4)
		a.step(t, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: seg0})
		b.step(t, proto.Event{Kind: proto.EvFedLocalView, Node: 1, View: seg1})
		c.step(t, proto.Event{Kind: proto.EvFedLocalView, Node: 1, View: seg1})
		site := can.MakeSet(0, 1)
		for _, x := range all {
			x.step(t, proto.Event{Kind: proto.EvBootstrap, View: site})
		}

		now := sim.Time(0)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 10 {
			case 0: // advance global time, firing due timers everywhere
				now = now.Add(time.Duration(arg%100+1) * time.Millisecond)
				for _, x := range all {
					x.advance(t, now)
				}
			case 1:
				a.flush(t, all)
			case 2:
				b.flush(t, all)
			case 3:
				c.flush(t, all)
			case 4:
				a.out = nil // backbone loss
			case 5:
				b.out = nil
			case 6:
				c.out = nil
			case 7:
				b.alive = false
			case 8:
				c.alive = false
			case 9:
				// Segment-1 membership churn, applied consistently at both
				// of its gateways. arg==7 empties the view: segment death.
				view := can.NodeSet(uint64(arg%8)) << 3
				for _, x := range []*fedBinding{b, c} {
					if x.alive {
						x.step(t, proto.Event{Kind: proto.EvFedLocalView, Node: 1, View: view})
					}
					x.core.members[1] = view // keep a crashed gateway's record coherent
				}
				seg1 = view
			}
			// Local liveness invariant: a bootstrapped gateway always keeps
			// its own live segment in its own site view.
			if a.alive && !seg0.Empty() && !a.core.SiteView().Contains(0) {
				t.Fatalf("gateway 0 lost its own live segment: site=%v", a.core.SiteView())
			}
			for _, x := range []*fedBinding{b, c} {
				if x.alive && !seg1.Empty() && !x.core.SiteView().Contains(1) {
					t.Fatalf("gateway %v lost its own live segment: site=%v",
						x.core.cfg.Gateway, x.core.SiteView())
				}
			}
		}

		// Stabilization epilogue: fault-free lockstep rounds long enough to
		// drain suppression windows and staleness deadlines.
		for r := 0; r < int(3*fuzzTstale/fuzzTann); r++ {
			now = now.Add(fuzzTann)
			for _, x := range all {
				x.advance(t, now)
			}
			for _, x := range all {
				if x.alive {
					x.flush(t, all)
				} else {
					x.out = nil
				}
			}
		}

		var want can.NodeSet
		if a.alive && !seg0.Empty() {
			want = want.Add(0)
		}
		if (b.alive || c.alive) && !seg1.Empty() {
			want = want.Add(1)
		}
		for _, x := range all {
			if !x.alive {
				continue
			}
			if got := x.core.SiteView(); got != want {
				t.Fatalf("stabilized site view of gateway %v = %v, want %v (alive: a=%t b=%t c=%t seg0=%v seg1=%v)",
					x.core.cfg.Gateway, got, want, a.alive, b.alive, c.alive, seg0, seg1)
			}
		}
	})
}
