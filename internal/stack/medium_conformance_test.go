package stack

// The Medium conformance suite: the contract every medium a stack binds to
// must honour — attach discipline, mailbox replacement, abort and
// pending-probe semantics, crash (fail-silence) behaviour, the Elapsed time
// base — asserted once, through the Medium and Port interfaces plus the
// probes below, and run against both NewMedium substrates and the
// internal/datagram network.
// Substrate-specific behaviour (arbitration, clustering, fault confinement,
// loss, per-link distributions) is tested in the substrate's own package.

import (
	"testing"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/datagram"
	"canely/internal/sim"
)

// probedPort is a Port plus the probes every substrate's port offers
// beyond the interface the stack needs.
type probedPort interface {
	Port
	Alive() bool
	TxSuccesses() int
	Pending(id uint32) bool
	QueueLen() int
}

// probedMedium is a Medium plus the time base and liveness queries every
// substrate offers beyond the interface the stack needs.
type probedMedium interface {
	Medium
	Rate() can.BitRate
	AliveSet() can.NodeSet
	Elapsed() time.Duration
}

// sink records what a port's handler is told.
type sink struct {
	foreign  []can.Frame
	own      int
	confirms int
}

func (s *sink) OnFrame(f can.Frame, own bool) {
	if own {
		s.own++
		return
	}
	s.foreign = append(s.foreign, f)
}
func (s *sink) OnConfirm(can.Frame) { s.confirms++ }
func (s *sink) OnBusOff()           {}

// rig is one medium with n attached ports, each feeding its own sink.
type rig struct {
	sched  *sim.Scheduler
	medium probedMedium
	ports  []probedPort
	sinks  []*sink
}

// mediumFactory builds one medium of the kind under test.
type mediumFactory func(sched *sim.Scheduler) Medium

// dgMedium adapts the lossless datagram network to the Medium interface
// (the only impedance is Attach's concrete return type).
type dgMedium struct{ *datagram.Net }

func (m dgMedium) Attach(id can.NodeID) Port { return m.Net.Attach(id) }

func newRig(t *testing.T, newMedium mediumFactory, n int) *rig {
	t.Helper()
	r := &rig{sched: sim.NewScheduler()}
	m, ok := newMedium(r.sched).(probedMedium)
	if !ok {
		t.Fatalf("%s medium lacks the Rate/AliveSet/Elapsed probes", t.Name())
	}
	r.medium = m
	for i := 0; i < n; i++ {
		p, ok := r.medium.Attach(can.NodeID(i)).(probedPort)
		if !ok {
			t.Fatalf("%s port lacks the Alive/TxSuccesses/Pending/QueueLen probes", t.Name())
		}
		s := &sink{}
		p.SetHandler(s)
		r.ports = append(r.ports, p)
		r.sinks = append(r.sinks, s)
	}
	return r
}

// onWire advances far enough that the winner among the requests made so far
// is being transmitted, and not so far that it has completed: the shortest
// frame occupies a 1 Mbit/s wire for 47 µs.
func (r *rig) onWire() { r.sched.RunFor(10 * time.Microsecond) }

func dataFrame(src can.NodeID, ref uint8, payload ...byte) can.Frame {
	f := can.Frame{ID: can.DataSign(0, src, ref).Encode()}
	f.SetPayload(payload)
	return f
}

func rtrFrame(mid can.MID) can.Frame { return can.Frame{ID: mid.Encode(), RTR: true} }

func mustRequest(t *testing.T, p Port, f can.Frame) {
	t.Helper()
	if err := p.Request(f); err != nil {
		t.Fatalf("request %v: %v", f, err)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

var conformance = []struct {
	name string
	run  func(t *testing.T, newMedium mediumFactory)
}{
	// Node identity is static configuration: attaching an id twice, or an
	// id outside the node space, is a programming error.
	{"attach", func(t *testing.T, newMedium mediumFactory) {
		r := newRig(t, newMedium, 1)
		mustPanic(t, "double attach", func() { r.medium.Attach(0) })
		mustPanic(t, "invalid id", func() { r.medium.Attach(can.NodeID(can.MaxNodes)) })
	}},

	// A lossless medium hands a frame to every other attached node exactly
	// once; the sender gets its confirmation and its own indication.
	{"broadcast", func(t *testing.T, newMedium mediumFactory) {
		r := newRig(t, newMedium, 4)
		mustRequest(t, r.ports[1], dataFrame(1, 0, 0xAB))
		r.sched.Run()
		if s := r.sinks[1]; s.own != 1 || s.confirms != 1 || len(s.foreign) != 0 {
			t.Errorf("sender saw own=%d confirms=%d foreign=%d, want 1/1/0", s.own, s.confirms, len(s.foreign))
		}
		for _, i := range []int{0, 2, 3} {
			if got := len(r.sinks[i].foreign); got != 1 {
				t.Errorf("node %d received %d copies, want 1", i, got)
			}
		}
		if got := r.ports[1].TxSuccesses(); got != 1 {
			t.Errorf("sender counts %d transmissions, want 1", got)
		}
		if got := r.medium.Stats().FramesOK; got != 1 {
			t.Errorf("FramesOK %d, want 1", got)
		}
	}},

	// Mailbox semantics: a waiting request with the same (identifier, kind)
	// is replaced in place, not queued behind the old one.
	{"mailbox replace", func(t *testing.T, newMedium mediumFactory) {
		r := newRig(t, newMedium, 2)
		p := r.ports[0]
		blocker := rtrFrame(can.FDASign(0)) // outranks any data frame
		mustRequest(t, p, blocker)
		r.onWire()
		f := dataFrame(0, 7, 1)
		mustRequest(t, p, f)
		waiting := p.QueueLen()
		g := dataFrame(0, 7, 2)
		mustRequest(t, p, g)
		if got := p.QueueLen(); got != waiting {
			t.Fatalf("queue length %d after replacement, want %d", got, waiting)
		}
		r.sched.Run()
		got := r.sinks[1].foreign
		if len(got) != 2 || got[0].ID != blocker.ID || got[1].ID != g.ID {
			t.Fatalf("receiver got %v, want the blocker then the replaced mailbox", got)
		}
		if pay := got[1].Payload(); len(pay) != 1 || pay[0] != 2 {
			t.Errorf("replaced mailbox delivered payload %v, want [2]", pay)
		}
	}},

	// can-abort.req has effect only on waiting requests: the frame on the
	// wire is not recalled.
	{"abort", func(t *testing.T, newMedium mediumFactory) {
		r := newRig(t, newMedium, 2)
		p := r.ports[0]
		first := rtrFrame(can.FDASign(1))
		second := dataFrame(0, 9)
		mustRequest(t, p, first)
		mustRequest(t, p, second)
		r.onWire()
		if p.Abort(first.ID) {
			t.Error("aborted the frame on the wire")
		}
		if !p.Pending(second.ID) {
			t.Error("waiting request not pending")
		}
		if !p.Abort(second.ID) {
			t.Error("waiting request not abortable")
		}
		if p.Pending(second.ID) {
			t.Error("aborted request still pending")
		}
		r.sched.Run()
		if got := r.sinks[1].foreign; len(got) != 1 || got[0].ID != first.ID {
			t.Errorf("receiver got %v, want only the on-wire frame", got)
		}
		if got := p.TxSuccesses(); got != 1 {
			t.Errorf("tx successes %d, want 1", got)
		}
	}},

	// PendingEquivalent sees a wire-identical request from the moment it is
	// made until it has been transmitted, and nothing else.
	{"pending equivalent", func(t *testing.T, newMedium mediumFactory) {
		r := newRig(t, newMedium, 2)
		mustRequest(t, r.ports[1], dataFrame(1, 1))
		r.onWire()
		f := rtrFrame(can.FDASign(3))
		mustRequest(t, r.ports[0], f)
		if !r.ports[0].PendingEquivalent(f) {
			t.Error("requested equivalent not found")
		}
		if r.ports[0].PendingEquivalent(rtrFrame(can.FDASign(4))) {
			t.Error("a different parameter is not equivalent")
		}
		r.sched.Run()
		if r.ports[0].PendingEquivalent(f) {
			t.Error("transmitted request still reported")
		}
	}},

	// Crash is fail-silence: idempotent, the port leaves the alive set,
	// rejects requests and hears nothing more.
	{"crash", func(t *testing.T, newMedium mediumFactory) {
		r := newRig(t, newMedium, 2)
		p := r.ports[1]
		p.Crash()
		p.Crash()
		if p.Alive() || p.Operational() {
			t.Error("crashed port reports alive")
		}
		if err := p.Request(dataFrame(1, 1)); err != bus.ErrRequestRejected {
			t.Errorf("crashed port answered a request with %v, want ErrRequestRejected", err)
		}
		mustRequest(t, r.ports[0], dataFrame(0, 1))
		r.sched.Run()
		if s := r.sinks[1]; len(s.foreign) != 0 || s.own != 0 {
			t.Error("crashed port received traffic")
		}
		if got := r.medium.AliveSet(); got != can.MakeSet(0) {
			t.Errorf("alive set %v, want {n00}", got)
		}
	}},

	// Elapsed is the scheduler's clock: zero on a fresh medium, never
	// backwards, and past a frame's wire time once the frame has arrived.
	{"elapsed", func(t *testing.T, newMedium mediumFactory) {
		r := newRig(t, newMedium, 2)
		if got := r.medium.Elapsed(); got != 0 {
			t.Fatalf("fresh medium elapsed %v", got)
		}
		f := dataFrame(0, 1, 1)
		mustRequest(t, r.ports[0], f)
		last := r.medium.Elapsed()
		for r.sched.Step() {
			now := r.medium.Elapsed()
			if now < last {
				t.Fatalf("Elapsed moved backwards: %v -> %v", last, now)
			}
			last = now
		}
		if len(r.sinks[1].foreign) != 1 {
			t.Fatal("frame not delivered")
		}
		if wire := r.medium.Rate().DurationOf(can.FrameBits(f)); last < wire {
			t.Errorf("Elapsed %v after delivery is short of the frame's %v on the wire", last, wire)
		}
	}},
}

func TestMediumConformance(t *testing.T) {
	substrate := func(sub Substrate) mediumFactory {
		return func(sched *sim.Scheduler) Medium {
			return NewMedium(sched, MediumConfig{Substrate: sub})
		}
	}
	for _, m := range []struct {
		name string
		new  mediumFactory
	}{
		{BitAccurate.String(), substrate(BitAccurate)},
		{Fast.String(), substrate(Fast)},
		{"datagram", func(sched *sim.Scheduler) Medium {
			return dgMedium{datagram.New(sched, datagram.Config{})}
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			for _, c := range conformance {
				t.Run(c.name, func(t *testing.T) { c.run(t, m.new) })
			}
		})
	}
}
