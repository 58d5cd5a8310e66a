package redundancy

import (
	"testing"
	"time"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/sim"
)

// fakePort is a medium attachment the fuzzer drives by hand: it accepts
// every request and delivers only what the fuzzer hands its handler.
type fakePort struct {
	handler bus.Handler
	off     bool
}

func (p *fakePort) ID() can.NodeID                   { return 1 }
func (p *fakePort) Request(can.Frame) error          { return nil }
func (p *fakePort) Abort(uint32) bool                { return false }
func (p *fakePort) PendingEquivalent(can.Frame) bool { return false }
func (p *fakePort) SetHandler(h bus.Handler)         { p.handler = h }
func (p *fakePort) Crash()                           { p.off = true }
func (p *fakePort) Operational() bool                { return !p.off }

// passedUp counts what the DualPort hands the layer above.
type passedUp struct {
	copies  map[frameKey]int
	busOffs int
}

func (u *passedUp) OnFrame(f can.Frame, _ bool) { u.copies[keyOf(f, false)]++ }
func (u *passedUp) OnConfirm(f can.Frame)       { u.copies[keyOf(f, true)]++ }
func (u *passedUp) OnBusOff()                   { u.busOffs++ }

// fuzzFrames are the frames the fuzzer delivers: few, so keys repeat.
var fuzzFrames = [4]can.Frame{
	{ID: can.ELSSign(1).Encode(), RTR: true},
	{ID: can.ELSSign(2).Encode(), RTR: true},
	{ID: can.DataSign(0, 1, 0).Encode(), DLC: 1, Data: [can.MaxData]byte{7}},
	{ID: can.DataSign(0, 1, 0).Encode(), DLC: 1, Data: [can.MaxData]byte{8}},
}

// fuzzOp is one decoded input step: an event on a medium after a pause.
type fuzzOp struct {
	medium int
	kind   int // 0, 1: frame indication; 2: confirmation; 3: bus-off
	frame  can.Frame
	step   time.Duration // 0–400 µs, the pause before the event
}

func decodeOps(data []byte) []fuzzOp {
	ops := make([]fuzzOp, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ops = append(ops, fuzzOp{
			medium: int(data[i] & 1),
			kind:   int(data[i]>>1) & 3,
			frame:  fuzzFrames[data[i]>>3&3],
			step:   time.Duration(data[i+1]%101) * 4 * time.Microsecond,
		})
	}
	return ops
}

// FuzzDualPort drives the first-copy merge with fuzzer-chosen deliveries,
// confirmations and bus-offs per medium, with pauses of 0–400 µs between
// them, and checks its four invariants:
//
//	(i)   a frame key is passed up at least as often as either medium
//	      delivered it;
//	(ii)  when both media deliver identical streams at identical instants,
//	      each copy is passed up exactly once;
//	(iii) a bus-off reaches the handler if and only if neither port is
//	      operational;
//	(iv)  no entry older than grace survives an event.
//
// The first input byte picks the mode: odd mirrors every instant's events
// on both media, in an order the input also picks, for (ii).
func FuzzDualPort(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 10})                     // a frame on A, its copy on B 40 µs later
	f.Add([]byte{0, 0, 0, 1, 60, 1, 0, 0, 60})        // copies more than grace apart
	f.Add([]byte{0, 6, 0, 0, 10, 7, 50})              // A bus-off, a frame on A, then B bus-off
	f.Add([]byte{0, 4, 0, 5, 0, 8, 0, 9, 0})          // confirmations beside indications
	f.Add([]byte{1, 0, 0, 8, 0, 17, 30, 16, 0, 9, 0}) // mirrored stream
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mirrored := data[0]&1 == 1
		sched := sim.NewScheduler()
		var ports [2]*fakePort
		ports[0], ports[1] = &fakePort{}, &fakePort{}
		d := NewDualPort(sched, ports[0], ports[1])
		up := &passedUp{copies: map[frameKey]int{}}
		d.SetHandler(up)
		var delivered [2]map[frameKey]int
		delivered[0], delivered[1] = map[frameKey]int{}, map[frameKey]int{}

		deliver := func(op fuzzOp) {
			p := ports[op.medium]
			if op.kind == 3 {
				if p.off {
					return // a shut-down controller signals nothing more
				}
				p.off = true
				want := 0
				if !ports[0].Operational() && !ports[1].Operational() {
					want = 1
				}
				before := up.busOffs
				p.handler.OnBusOff()
				if got := up.busOffs - before; got != want {
					t.Fatalf("bus-off on medium %d reached the handler %d times, want %d", op.medium, got, want)
				}
			} else {
				if p.off {
					return
				}
				cnf := op.kind == 2
				delivered[op.medium][keyOf(op.frame, cnf)]++
				if cnf {
					p.handler.OnConfirm(op.frame)
				} else {
					p.handler.OnFrame(op.frame, false)
				}
			}
			for m, q := range d.passed {
				for _, e := range q {
					if age := sched.Now().Sub(e.at); age > grace {
						t.Fatalf("medium %d kept an entry %v old past an event", m, age)
					}
				}
			}
			for m := range delivered {
				for k, n := range delivered[m] {
					if up.copies[k] < n {
						t.Fatalf("medium %d delivered %v %d times, passed up %d", m, k, n, up.copies[k])
					}
				}
			}
		}

		ops := decodeOps(data[1:])
		if !mirrored {
			for _, op := range ops {
				sched.RunFor(op.step)
				deliver(op)
			}
			return
		}
		// Mirrored: the events of one instant go out on one medium, then
		// the same events on the other; bus-offs would break the mirror.
		var batch []fuzzOp
		flush := func() {
			if len(batch) == 0 {
				return
			}
			first := batch[0].medium
			for _, m := range []int{first, 1 - first} {
				for _, op := range batch {
					op.medium = m
					deliver(op)
				}
			}
			batch = batch[:0]
		}
		for _, op := range ops {
			if op.kind == 3 {
				continue
			}
			if op.step > 0 {
				flush()
				sched.RunFor(op.step)
			}
			batch = append(batch, op)
		}
		flush()
		for k, n := range delivered[0] {
			if up.copies[k] != n {
				t.Fatalf("both media delivered %v %d times at the same instants, passed up %d", k, n, up.copies[k])
			}
		}
	})
}
