package datagram

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/sim"
)

// The stream-identity pin: a lossy, duplicating 8-node run with broadcast
// and unicast traffic, request backlogs, handlers that re-enter Request, and
// a receiver crash with copies in flight. The digest covers every arrival
// (at, from, to, id, seq) and the final Stats, so any change to draw order,
// event order or in-flight bookkeeping shows up as a different value.
const (
	identityNodes   = 8
	identityVictim  = can.NodeID(5)
	identityCrashAt = sim.Time(20 * time.Millisecond)
	identityDigest  = uint64(0xee05efbd4e29f239)
	identityCount   = 1149
)

var identityLink = LinkParams{Drop: 0.1, Duplicate: 0.1, DelayMin: 100 * time.Microsecond, DelayJitter: 400 * time.Microsecond}

type arrival struct {
	at       sim.Time
	from, to can.NodeID
	id       uint32
	seq      uint16
}

// identityRx records arrivals at one port and answers every even-numbered
// unicast with a unicast back to its sender, from inside OnFrame.
type identityRx struct {
	r    *identityRun
	port *Port
}

func (h *identityRx) OnFrame(f can.Frame, own bool) {
	if own {
		return
	}
	mid, err := can.DecodeMID(f.ID)
	if err != nil {
		h.r.t.Fatalf("undecodable arrival %#x", f.ID)
	}
	p := f.Payload()
	seq := uint16(p[0])<<8 | uint16(p[1])
	h.r.got = append(h.r.got, arrival{at: h.r.sched.Now(), from: mid.Src, to: h.port.id, id: f.ID, seq: seq})
	if mid.Type == can.TypeGossip && seq%2 == 0 && p[2] == 0 {
		h.r.send(h.port, can.GossipSign(mid.Src, h.port.id, mid.Ref+1), 1)
	}
}
func (h *identityRx) OnConfirm(can.Frame) {}
func (h *identityRx) OnBusOff()           {}

type identityRun struct {
	t        *testing.T
	sched    *sim.Scheduler
	net      *Net
	ports    []*Port
	got      []arrival
	seq      uint16
	maxQueue int
}

// send requests one frame carrying a fresh sequence number; reply marks
// answers so they are not answered again.
func (r *identityRun) send(p *Port, mid can.MID, reply byte) {
	r.seq++
	f := can.Frame{ID: mid.Encode()}
	f.SetPayload([]byte{byte(r.seq >> 8), byte(r.seq), reply})
	_ = p.Request(f) // rejected only after a crash
	if q := p.QueueLen(); q > r.maxQueue {
		r.maxQueue = q
	}
}

// runIdentity drives 40 virt ms of traffic: every 300 µs one node requests
// a broadcast and two unicasts back to back, so two of them wait behind the
// one being serialized. With crash set, the victim crashes at
// identityCrashAt.
func runIdentity(t *testing.T, crash bool) *identityRun {
	sched := sim.NewScheduler()
	r := &identityRun{t: t, sched: sched, net: New(sched, Config{Seed: 11, Link: identityLink})}
	for i := 0; i < identityNodes; i++ {
		p := r.net.Attach(can.NodeID(i))
		p.SetHandler(&identityRx{r: r, port: p})
		r.ports = append(r.ports, p)
	}
	for step := 0; step < 133; step++ {
		k := can.NodeID(step % identityNodes)
		sched.At(sim.Time(step)*sim.Time(300*time.Microsecond), func() {
			p := r.ports[k]
			r.send(p, can.DataSign(0, k, uint8(step)), 0)
			r.send(p, can.GossipSign((k+1)%identityNodes, k, 0), 0)
			r.send(p, can.GossipSign((k+3)%identityNodes, k, 0), 0)
		})
	}
	if crash {
		sched.At(identityCrashAt, func() { r.ports[identityVictim].Crash() })
	}
	sched.Run()
	return r
}

func (r *identityRun) digest() uint64 {
	h := fnv.New64a()
	for _, a := range r.got {
		fmt.Fprintf(h, "%d %d %d %x %d\n", a.at, a.from, a.to, a.id, a.seq)
	}
	fmt.Fprintf(h, "%+v\n", r.net.Stats())
	return h.Sum64()
}

// TestStreamIdentity: the arrival stream and statistics of a fixed lossy
// run are pinned, and every arrival is plausible — a copy reaches only its
// addressee (unicast) or a node other than its sender (broadcast), at most
// twice (original plus duplicate), and never a crashed receiver.
func TestStreamIdentity(t *testing.T) {
	r := runIdentity(t, true)
	if r.maxQueue < 2 {
		t.Errorf("request backlog peaked at %d, want at least 2 waiting frames", r.maxQueue)
	}
	s := r.net.Stats()
	if s.FramesError == 0 || s.FramesInconsistent == 0 {
		t.Errorf("run lost nothing or duplicated nothing: %+v", s)
	}
	copies := map[[2]uint16]int{}
	for _, a := range r.got {
		mid, _ := can.DecodeMID(a.id)
		if mid.Type == can.TypeGossip && can.GossipDest(mid) != a.to {
			t.Fatalf("unicast %+v delivered to %v, addressed to %v", a, a.to, can.GossipDest(mid))
		}
		if a.from == a.to {
			t.Fatalf("copy %+v delivered back to its sender", a)
		}
		if a.to == identityVictim && a.at > identityCrashAt {
			t.Fatalf("crashed node received %+v", a)
		}
		k := [2]uint16{a.seq, uint16(a.to)}
		if copies[k]++; copies[k] > 2 {
			t.Fatalf("sequence %d reached %v %d times", a.seq, a.to, copies[k])
		}
	}

	// Without the crash the run is the same up to identityCrashAt, so copies
	// that reach the victim less than the propagation floor later were in
	// flight when it crashed: the crashed run must have dropped them.
	inFlight := 0
	for _, a := range runIdentity(t, false).got {
		if a.to == identityVictim && a.at > identityCrashAt && a.at < identityCrashAt.Add(identityLink.DelayMin) {
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Error("no copy to the victim was in flight at the crash; the scenario does not exercise it")
	}

	if got := r.digest(); got != identityDigest || len(r.got) != identityCount {
		t.Errorf("stream digest %#x over %d arrivals, want %#x over %d", got, len(r.got), identityDigest, identityCount)
	}
}
