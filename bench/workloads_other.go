package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"canely/internal/can"
	"canely/internal/explore"
	"canely/internal/rt"
	"canely/internal/wire"
)

// ---- explore_exhaust ----

const (
	// exploreDepth bounds the CANELy scenario's decision depth. The
	// scenario's own default (25) takes ~4 s per exhaustion on the reference
	// host — too long for a batch that is repeated and warmed up; depth 20
	// keeps every mechanism (pruning, sleep sets, checkpoints) at work in a
	// tree a sixth of the size (42,675 schedules against 245,544).
	exploreDepth      = 20
	exploreQuickDepth = 12
	// exploreGossipReps is how many times a batch exhausts the (much
	// smaller) gossip scenario; each exhaustion is one timed operation.
	exploreGossipReps = 2
)

type exploreInst struct {
	e     *env
	depth int
	reps  int
}

func startExplore(e *env) (instance, error) {
	x := &exploreInst{e: e, depth: exploreDepth, reps: exploreGossipReps}
	if e.scale < 1 {
		x.depth, x.reps = exploreQuickDepth, 1
	}
	return x, nil
}

// exhaust explores one scenario to exhaustion and returns the runs started.
func (x *exploreInst) exhaust(name string, scen explore.Scenario, m *meter) float64 {
	sp := m.tr.begin("explore.New")
	eng, err := explore.New(explore.Config{Scenario: scen, Workers: 1, Prune: true, POR: true})
	m.tr.end(sp)
	if err != nil {
		m.breach("explore.New(%s): %v", name, err)
		return 0
	}
	sp = m.tr.begin("explore.Engine.Run")
	res, err := eng.Run(context.Background())
	m.tr.end(sp)
	m.check(err == nil && res.Violation == nil && res.Exhausted,
		"%s: err=%v violation=%v exhausted=%v", name, err, res.Violation, res.Exhausted)

	for k, v := range map[string]uint64{
		"schedules": res.Schedules, "pruned": res.Pruned, "slept": res.Slept, "distinct": res.Distinct,
	} {
		m.obs.count("explore."+name+"."+k, float64(v))
	}
	m.obs.count("explore.runs", float64(res.Runs()))
	m.obs.count("explore.pruned", float64(res.Pruned))
	m.obs.count("explore.slept", float64(res.Slept))
	m.obs.count("explore.steps", float64(res.Steps))
	m.obs.count("explore.resumed", float64(res.Resumed))
	m.obs.count("explore.replay_saved", float64(res.ReplaySaved))
	m.obs.count("explore.snapshots", float64(res.Snapshots))
	return float64(res.Runs())
}

func (x *exploreInst) batch(_ int, m *meter) {
	canelyScen := explore.DefaultScenario()
	canelyScen.MaxDepth = x.depth
	m.begin()
	work := x.exhaust("canely", canelyScen, m)
	for i := 0; i < x.reps; i++ {
		t := time.Now()
		work += x.exhaust("gossip", explore.DefaultGossipScenario(), m)
		m.op(time.Since(t))
	}
	m.end(work)
}

func (x *exploreInst) close() {}

// ---- broker_live ----

const (
	brokerSeqFrames  = 400  // phase A: one frame in flight, each timed
	brokerPipeFrames = 2000 // phase B: brokerWindow frames in flight
	brokerWindow     = 8
	brokerNode       = can.NodeID(1)
	brokerIOTimeout  = 10 * time.Second
)

type brokerInst struct {
	e        *env
	b        *rt.Broker
	sock     string
	node     net.Conn
	nodeR    *bufio.Reader
	tap      net.Conn
	tapDone  sync.WaitGroup
	tapSeen  atomic.Int64
	sent     int64
	seq      uint32
	seqN     int
	pipeN    int
	lastPoll rt.BrokerMetrics
}

func dialBroker(network, address string, role wire.Role) (net.Conn, error) {
	conn, err := net.DialTimeout(network, address, brokerIOTimeout)
	if err != nil {
		return nil, err
	}
	if err := wire.Write(conn, wire.Msg{Kind: wire.KindHello, Node: brokerNode, Role: role}); err != nil {
		conn.Close()
		return nil, err
	}
	welcome, err := wire.Read(conn)
	if err != nil || welcome.Kind != wire.KindWelcome {
		conn.Close()
		return nil, fmt.Errorf("broker handshake: %v (kind %v)", err, welcome.Kind)
	}
	return conn, nil
}

func startBroker(e *env) (instance, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	// A relative path keeps the socket name under the 108-byte sun_path
	// limit however deep the checkout sits.
	sock := filepath.Join(e.outDir, fmt.Sprintf("broker-%d.sock", os.Getpid()))
	os.Remove(sock)
	sp := e.tr.begin("rt.ListenBroker")
	b, err := rt.ListenBroker("unix:"+sock, rt.BrokerConfig{Rate: can.Rate1Mbps})
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	br := &brokerInst{e: e, b: b, sock: sock, seqN: e.scaled(brokerSeqFrames), pipeN: e.scaled(brokerPipeFrames)}
	// The tap attaches first so that it sees every frame the node sends.
	if br.tap, err = dialBroker("unix", sock, wire.RoleTap); err == nil {
		br.node, err = dialBroker("unix", sock, wire.RoleNode)
	}
	if err != nil {
		br.close()
		return nil, err
	}
	br.nodeR = bufio.NewReaderSize(br.node, 16<<10)
	br.tapDone.Add(1)
	go func() {
		defer br.tapDone.Done()
		r := bufio.NewReaderSize(br.tap, 16<<10)
		for {
			msg, err := wire.Read(r)
			if err != nil {
				return
			}
			if msg.Kind == wire.KindFrame {
				br.tapSeen.Add(1)
			}
		}
	}()
	return br, nil
}

func (br *brokerInst) frame() can.Frame {
	br.seq++
	f := can.Frame{ID: uint32(brokerNode)<<20 | br.seq&0xfffff, DLC: 4}
	f.Data[0], f.Data[1] = byte(br.seq>>8), byte(br.seq)
	return f
}

func (br *brokerInst) send(f can.Frame) error {
	br.sent++
	br.node.SetDeadline(time.Now().Add(brokerIOTimeout))
	return wire.Write(br.node, wire.Msg{Kind: wire.KindRequest, Frame: f})
}

// awaitOwn reads the node connection up to the next own-frame indication.
func (br *brokerInst) awaitOwn() (can.Frame, error) {
	for {
		msg, err := wire.Read(br.nodeR)
		if err != nil {
			return can.Frame{}, err
		}
		if msg.Kind == wire.KindFrame && msg.Own {
			return msg.Frame, nil
		}
	}
}

func (br *brokerInst) batch(b int, m *meter) {
	lost := func(phase string, err error) {
		m.check(false, "batch %d phase %s: connection lost: %v", b, phase, err)
	}
	// Phase A: one frame at a time, request written → own indication read.
	for i := 0; i < br.seqN; i++ {
		f := br.frame()
		t := time.Now()
		sp := m.tr.begin("broker.write_read")
		err := br.send(f)
		var got can.Frame
		if err == nil {
			got, err = br.awaitOwn()
		}
		m.tr.end(sp)
		m.op(time.Since(t))
		if err != nil {
			lost("A", err)
			return
		}
		m.check(got.ID == f.ID, "batch %d: sent frame %#x, own indication %#x", b, f.ID, got.ID)
	}

	// Phase B: a window of frames in flight; each indication read admits
	// the next request. This is the timed region.
	m.begin()
	sp := m.tr.begin("broker.pipeline")
	inFlight, next := 0, 0
	var want []uint32
	for done := 0; done < br.pipeN; {
		for inFlight < brokerWindow && next < br.pipeN {
			f := br.frame()
			if err := br.send(f); err != nil {
				lost("B", err)
				return
			}
			want = append(want, f.ID)
			inFlight++
			next++
		}
		got, err := br.awaitOwn()
		if err != nil {
			lost("B", err)
			return
		}
		// One sender and identifiers that ascend for 2^20 frames: arbitration
		// delivers in request order.
		m.check(got.ID == want[done], "batch %d: indication %d is frame %#x, want %#x", b, done, got.ID, want[done])
		done++
		inFlight--
		if br.e.hooks != nil { // traced pass: sample the broker's queue gauge
			if q := float64(br.b.Metrics().QueueDepth); q > m.obs.counts["rt.broker_queue_peak"] {
				m.obs.counts["rt.broker_queue_peak"] = q
			}
		}
	}
	m.tr.end(sp)
	m.end(float64(br.pipeN))

	// The tap must have seen every frame sent so far.
	deadline := time.Now().Add(brokerIOTimeout)
	for br.tapSeen.Load() < br.sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.check(br.tapSeen.Load() == br.sent, "batch %d: tap saw %d of %d frames", b, br.tapSeen.Load(), br.sent)

	now := br.b.Metrics()
	m.obs.count("rt.broker_msgs_sent", float64(now.MsgsSent-br.lastPoll.MsgsSent))
	m.obs.count("rt.broker_frames_delivered", float64(now.FramesDelivered-br.lastPoll.FramesDelivered))
	m.obs.count("rt.broker_overflows", float64(now.Overflows-br.lastPoll.Overflows))
	m.obs.count("fastbus.frames_ok", float64(now.FramesDelivered-br.lastPoll.FramesDelivered))
	br.lastPoll = now
	m.check(now.Overflows == 0 && now.WriteErrors == 0, "batch %d: broker dropped clients: %+v", b, now)
}

func (br *brokerInst) close() {
	if br.node != nil {
		br.node.Close()
	}
	if br.tap != nil {
		br.tap.Close()
		br.tapDone.Wait()
	}
	br.b.Close()
	os.Remove(br.sock)
}
