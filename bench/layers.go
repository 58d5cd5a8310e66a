package main

import (
	"bytes"
	"context"
	"hash/maphash"
	"runtime"
	"time"

	"canely"
	"canely/internal/bus"
	"canely/internal/campaign"
	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/datagram"
	"canely/internal/experiments"
	"canely/internal/explore"
	"canely/internal/fastbus"
	"canely/internal/fault"
	"canely/internal/gossip"
	"canely/internal/rt"
	"canely/internal/sim"
	"canely/internal/stack"
	"canely/internal/wire"
)

// The unit costs below come from fixed-iteration loops over each layer's
// public entry point, timed from outside. Inputs mirror what the workloads
// feed the layer: 8-node views, DLC-4/DLC-8 frames, the default timing.

// loopReps is how many times a loop is repeated; its median is reported.
// loopMin is the least a repetition lasts: a loop of a few ns per operation
// is run again and again until the clock's grain and a stray interrupt no
// longer show.
const (
	loopReps = 5
	loopMin  = 2 * time.Millisecond
)

// sink keeps results alive so that the compiler cannot drop a measured call.
var sink uint64

// perCall times f, which performs n operations, loopReps times after a
// warm-up repetition and a collection, and returns the median host ns per
// operation.
func perCall(n int, f func()) float64 {
	t := time.Now()
	f()
	calls := int(loopMin/(time.Since(t)+1)) + 1
	for c := 0; c < calls; c++ { // warm-up: the heap grows to what the loop needs
		f()
	}
	runtime.GC() // the workloads' garbage (and the warm-up's) is not this loop's to collect
	samples := make([]float64, loopReps)
	for i := range samples {
		t := time.Now()
		for c := 0; c < calls; c++ {
			f()
		}
		samples[i] = float64(time.Since(t)) / float64(calls*n)
	}
	return median(samples)
}

// mallocsOf returns the heap objects f allocates, once whatever it
// initialises lazily on first use is in place.
func mallocsOf(f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func nop() {}

// nopHandler is a controller handler that ignores every indication.
type nopHandler struct{}

func (nopHandler) OnFrame(can.Frame, bool) {}
func (nopHandler) OnConfirm(can.Frame)     {}
func (nopHandler) OnBusOff()               {}

// stubMedium is a benchmark-owned stack.Medium with one port that accepts
// every request and transmits nothing: it isolates the stack binding.
type stubMedium struct{ port *stubPort }

type stubPort struct {
	id      can.NodeID
	handler bus.Handler
}

func (m *stubMedium) Attach(id can.NodeID) stack.Port {
	m.port = &stubPort{id: id}
	return m.port
}
func (*stubMedium) Rate() can.BitRate      { return can.Rate1Mbps }
func (*stubMedium) AliveSet() can.NodeSet  { return can.EmptySet }
func (*stubMedium) Stats() bus.Stats       { return bus.Stats{} }
func (*stubMedium) Elapsed() time.Duration { return 0 }

func (p *stubPort) ID() can.NodeID                   { return p.id }
func (p *stubPort) Request(can.Frame) error          { return nil }
func (p *stubPort) Abort(uint32) bool                { return false }
func (p *stubPort) PendingEquivalent(can.Frame) bool { return false }
func (p *stubPort) SetHandler(h bus.Handler)         { p.handler = h }
func (p *stubPort) Crash()                           {}
func (p *stubPort) Alive() bool                      { return true }
func (p *stubPort) Operational() bool                { return true }
func (p *stubPort) State() bus.ControllerState       { return bus.ErrorActive }
func (p *stubPort) Counters() (int, int)             { return 0, 0 }
func (p *stubPort) TxSuccesses() int                 { return 0 }
func (p *stubPort) RxSuccesses() int                 { return 0 }

var (
	view8    = can.RangeSet(0, 8)
	coreCfg  = core.Config{FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond}, Membership: mshCfg}
	mshCfg   = membership.Config{Tm: 50 * time.Millisecond, TjoinWait: 120 * time.Millisecond, RHA: membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2}}
	stackCfg = stack.Config{FD: coreCfg.FD, Membership: mshCfg, J: 2}
)

func dataFrame(src can.NodeID, ref uint8, dlc int) can.Frame {
	f := can.Frame{ID: can.DataSign(1, src, ref).Encode()}
	f.SetPayload(make([]byte, dlc))
	return f
}

// measureLayers runs every unit-cost loop and returns the "_ns" (and
// "_allocs") layer metrics.
func measureLayers() map[string]float64 {
	out := map[string]float64{}
	layerSim(out)
	layerCAN(out)
	layerMedia(out)
	layerStack(out)
	layerFacade(out)
	layerCore(out)
	layerGossip(out)
	layerFault(out)
	layerCampaign(out)
	layerExplore(out)
	layerWire(out)
	layerLoop(out)
	return out
}

func layerSim(out map[string]float64) {
	const n = 1024
	s := sim.NewScheduler()
	for i := 0; i < 256; i++ { // the standing population the loops run against
		s.After(time.Hour+time.Duration(i), nop)
	}
	evs := make([]sim.Event, n)
	schedule := func() {
		for i := range evs {
			evs[i] = s.After(time.Duration(i+1)*time.Microsecond, nop)
		}
	}
	var sched, fire, cancel []float64
	const reps = 64 // one repetition lasts ~0.1 ms, so take many
	for rep := 0; rep <= reps; rep++ {
		t0 := time.Now()
		schedule()
		t1 := time.Now()
		s.RunFor(n * time.Microsecond)
		t2 := time.Now()
		schedule()
		t3 := time.Now()
		for i := range evs {
			evs[i].Cancel()
		}
		t4 := time.Now()
		s.RunFor(n * time.Microsecond) // reap the cancelled entries
		if rep == 0 {
			continue // warm-up: the arena grows
		}
		sched = append(sched, float64(t1.Sub(t0))/n)
		fire = append(fire, float64(t2.Sub(t1))/n)
		cancel = append(cancel, float64(t4.Sub(t3))/n)
	}
	out["sim.schedule_ns"] = median(sched)
	out["sim.fire_ns"] = median(fire)
	out["sim.cancel_ns"] = median(cancel)

	tm := sim.NewTimer(s, nop)
	tm.Start(10 * time.Millisecond)
	out["sim.timer_restart_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			tm.Restart()
		}
	})
}

func layerCAN(out map[string]float64) {
	const n = 4096
	mids := make([]can.MID, 64)
	ids := make([]uint32, 64)
	frames := make([]can.Frame, 64)
	for i := range mids {
		mids[i] = can.DataSign(uint8(i), can.NodeID(i%32), uint8(3*i))
		if i%2 == 0 {
			mids[i] = can.ELSSign(can.NodeID(i % 32))
		}
		ids[i] = mids[i].Encode()
		frames[i] = dataFrame(can.NodeID(i%32), uint8(i), i%9)
		frames[i].Data[0] = byte(i)
	}
	out["can.mid_encode_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(mids[i%64].Encode())
		}
	})
	out["can.mid_decode_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			m, _ := can.DecodeMID(ids[i%64])
			sink += uint64(m.Param)
		}
	})
	out["can.frame_bits_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(can.FrameBits(frames[i%64]))
		}
	})
}

// mediumPort is what the three simulated media's ports have in common.
type mediumPort interface {
	Request(can.Frame) error
	SetHandler(bus.Handler)
}

// txDeliver measures one request carried to its receivers' handlers and,
// with arbitrate, eight simultaneous requests resolved by arbitration, per
// frame.
func txDeliver(out map[string]float64, layer string, s *sim.Scheduler, attach func(can.NodeID) mediumPort, frame func(src can.NodeID, ref uint8) can.Frame, arbitrate bool) {
	const n = 256
	ports := make([]mediumPort, 8)
	for i := range ports {
		ports[i] = attach(can.NodeID(i))
		ports[i].SetHandler(nopHandler{})
	}
	ref := uint8(0)
	sent, fired := 0, s.Fired()
	out[layer+".tx_deliver_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			ref++
			_ = ports[0].Request(frame(0, ref)) // an operational port accepts
			s.Run()
		}
		sent += n
	})
	// Scheduler events per frame: the attribution takes them off the
	// scheduler's share, since the medium's unit cost already holds them.
	out[layer+".events_per_frame"] = float64(s.Fired()-fired) / float64(sent)
	if !arbitrate {
		return
	}
	out[layer+".arbitrate8_ns"] = perCall(n, func() {
		for i := 0; i < n/8; i++ {
			ref++
			for p := range ports {
				_ = ports[p].Request(frame(can.NodeID(p), ref))
			}
			s.Run()
		}
	})
}

func layerMedia(out map[string]float64) {
	s := sim.NewScheduler()
	bb := bus.New(s, bus.Config{Rate: can.Rate1Mbps})
	// The buses broadcast: one sender → seven handlers, DLC 8.
	broadcast := func(src can.NodeID, ref uint8) can.Frame { return dataFrame(src, ref, 8) }
	txDeliver(out, "bus", s, func(id can.NodeID) mediumPort { return bb.Attach(id) }, broadcast, true)

	s = sim.NewScheduler()
	fb := fastbus.New(s, fastbus.Config{Rate: can.Rate1Mbps})
	txDeliver(out, "fastbus", s, func(id can.NodeID) mediumPort { return fb.Attach(id) }, broadcast, true)

	s = sim.NewScheduler()
	dg := datagram.New(s, datagram.Config{Rate: can.Rate1Mbps, Seed: 1,
		Link: datagram.LinkParams{Drop: 0.05, DelayMin: 200 * time.Microsecond, DelayJitter: 100 * time.Microsecond}})
	// The datagram medium carries what gossip_lossy sends: unicast gossip
	// messages with a full payload, each sampling one lossy link.
	unicast := func(src can.NodeID, ref uint8) can.Frame {
		f := can.Frame{ID: can.GossipSign(src+1, src, ref).Encode()}
		f.SetPayload(make([]byte, 8))
		return f
	}
	txDeliver(out, "datagram", s, func(id can.NodeID) mediumPort { return dg.Attach(id) }, unicast, false)

	// Share of post-frame gaps fastbus skipped analytically, on the
	// steady_traffic pattern (stack.NewMedium exposes the fastbus through
	// the Medium it returns).
	s = sim.NewScheduler()
	medium := stack.NewMedium(s, stack.MediumConfig{Substrate: stack.Fast, Rate: can.Rate1Mbps, Injector: fault.None{}})
	stacks := make([]*stack.Stack, 8)
	for i := range stacks {
		stacks[i], _ = stack.New(s, []stack.Medium{medium}, can.NodeID(i), stackCfg, nil, nil) // stackCfg is valid
	}
	for i, st := range stacks {
		st.Bootstrap(view8)
		if i < 2 {
			st := st
			seq := uint8(0)
			tk := sim.NewTicker(s, func() {
				seq++
				_ = st.Layer.DataReq(can.DataSign(1, st.ID(), seq), []byte{1, 2, 3, 4})
			})
			tk.StartAt(time.Duration(i+1)*time.Millisecond, 5*time.Millisecond)
		}
	}
	s.RunFor(time.Second)
	if adv, ok := medium.(interface{ Advances() (uint64, uint64) }); ok {
		if batched, stepped := adv.Advances(); batched+stepped > 0 {
			out["fastbus.batched_share"] = float64(batched) / float64(batched+stepped)
		}
	}
}

func layerStack(out map[string]float64) {
	const n = 1024
	s := sim.NewScheduler()
	newStack := func() (*stack.Stack, *stubPort) {
		m := &stubMedium{}
		st, err := stack.New(s, []stack.Medium{m}, 0, stackCfg, nil, nil)
		if err != nil {
			panic(err) // stackCfg is a constant of this file
		}
		return st, m.port
	}
	out["stack.new_ns"] = perCall(64, func() {
		for i := 0; i < 64; i++ {
			newStack()
		}
	})
	out["stack.new_allocs"] = mallocsOf(func() { newStack() })

	st, port := newStack()
	st.Bootstrap(view8)
	els := can.Frame{ID: can.ELSSign(1).Encode(), RTR: true}
	rha := can.Frame{ID: can.RHASign(view8.Count(), 1).Encode()}
	rha.SetPayload(view8.Bytes())
	ref := uint8(0)
	for name, next := range map[string]func() can.Frame{
		"els":  func() can.Frame { return els },
		"data": func() can.Frame { ref++; return dataFrame(1, ref, 4) },
		"rha":  func() can.Frame { return rha },
	} {
		out["stack.on_frame_ns."+name] = perCall(n, func() {
			for i := 0; i < n; i++ {
				port.handler.OnFrame(next(), false)
			}
		})
	}
}

func layerFacade(out map[string]float64) {
	const n = 256
	cfg := canely.DefaultConfig()
	cfg.Substrate = canely.SubstrateFast
	out["canely.new_network_ns.fast"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			canely.NewNetwork(cfg, 8)
		}
	})
	out["canely.new_network_allocs"] = mallocsOf(func() { canely.NewNetwork(cfg, 8) })
	var boot []float64
	for i := 0; i < n; i++ {
		net := canely.NewNetwork(cfg, 8)
		t := time.Now()
		net.BootstrapAll()
		boot = append(boot, float64(time.Since(t)))
	}
	out["canely.bootstrap_ns"] = median(boot)
	cfg.Substrate = canely.SubstrateBitAccurate
	out["canely.new_network_ns.bit"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			canely.NewNetwork(cfg, 8)
		}
	})
}

func layerCore(out map[string]float64) {
	const n = 1024
	base, err := core.New(0, coreCfg)
	if err != nil {
		panic(err) // coreCfg is a constant of this file
	}
	var buf proto.CommandBuf
	at := sim.Time(0)
	step := func(nd *core.Node, ev proto.Event) {
		at += sim.Time(time.Microsecond)
		ev.At = at
		buf.Reset()
		nd.StepInto(ev, &buf)
	}
	step(base, proto.Event{Kind: proto.EvBootstrap, View: view8})
	for r := 1; r < 8; r++ { // everyone has signed life once: surveillance is armed
		step(base, proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(can.NodeID(r))})
	}
	work := base.Clone()

	// Events that leave the state as it was can be fed back to back.
	repeat := func(name string, ev proto.Event) {
		out["core.node_step_ns."+name] = perCall(n, func() {
			for i := 0; i < n; i++ {
				step(work, ev)
			}
		})
	}
	repeat("els", proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(1)})
	repeat("data_nty", proto.Event{Kind: proto.EvDataNty, MID: can.DataSign(1, 1, 7)})
	repeat("tm_cycle", proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle})

	out["core.node_clone_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(base.Clone().Msh.Cycles)
		}
	})
	restore := perCall(n, func() {
		for i := 0; i < n; i++ {
			work.Restore(base)
		}
	})
	out["core.node_restore_ns"] = restore
	var h maphash.Hash
	out["core.node_fingerprint_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			base.Fingerprint(&h)
		}
		sink += h.Sum64()
	})

	// Events that change the state start from a restored copy each time;
	// the restore's own cost is taken off.
	fresh := func(name string, ev proto.Event, late sim.Time) {
		total := perCall(n, func() {
			for i := 0; i < n; i++ {
				work.Restore(base)
				ev.At = at + late
				buf.Reset()
				work.StepInto(ev, &buf)
			}
		})
		if total -= restore; total < 0 {
			total = 0
		}
		out["core.node_step_ns."+name] = total
	}
	// A surveillance scan one second on: every monitored node has expired.
	fresh("fd_expiry", proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan}, sim.Time(time.Second))
	fresh("rha_sign", proto.Event{Kind: proto.EvDataInd, MID: can.RHASign(view8.Count(), 1)}.WithPayload(view8.Bytes()), 0)
}

func layerGossip(out map[string]float64) {
	const n = 1024
	g, err := gossip.New(0, gossip.DefaultConfig())
	if err != nil {
		panic(err) // the package's own default
	}
	var buf proto.CommandBuf
	at := sim.Time(0)
	step := func(ev proto.Event) {
		at += sim.Time(time.Millisecond)
		ev.At = at
		buf.Reset()
		g.StepInto(ev, &buf)
	}
	step(proto.Event{Kind: proto.EvBootstrap, View: view8})
	// Message kinds live in the high nibble of the mid Ref (gossip.go):
	// 1 = ping (payload[0] = origin to ack), 2 = ack.
	ping := proto.Event{Kind: proto.EvDataInd, MID: can.GossipSign(0, 1, 1<<4|3)}.WithPayload([]byte{1})
	ack := proto.Event{Kind: proto.EvDataInd, MID: can.GossipSign(0, 1, 2<<4|3)}
	for name, ev := range map[string]proto.Event{
		"tick": {Kind: proto.EvTimerFired, Timer: proto.TimerGossipTick},
		"ping": ping,
		"ack":  ack,
	} {
		out["gossip.step_ns."+name] = perCall(n, func() {
			for i := 0; i < n; i++ {
				step(ev)
			}
		})
	}
	out["gossip.clone_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(g.Clone().Msgs())
		}
	})
	var h maphash.Hash
	out["gossip.fingerprint_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			g.Fingerprint(&h)
		}
		sink += h.Sum64()
	})
}

func layerFault(out map[string]float64) {
	const n = 4096
	inj := fault.NewStochastic(sim.NewRNG(1).Split("fault"), 0.01, 0.002, 4, 2, 100*time.Millisecond)
	ctx := fault.TxContext{Frame: dataFrame(0, 1, 4), Senders: can.MakeSet(0), Receivers: can.RangeSet(1, 32), Attempt: 1}
	out["fault.decide_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			ctx.Now += sim.Time(100 * time.Microsecond)
			if inj.Decide(ctx).Corrupt {
				sink++
			}
		}
	})
}

func layerCampaign(out map[string]float64) {
	const n = 8192
	noop := &campaign.Spec{Name: "noop", Base: canely.DefaultConfig(), Seeds: campaign.SeedRange{Base: 1, N: n},
		Run: func(campaign.Params) (map[string]float64, error) { return nil, nil }}
	out["campaign.dispatch_ns"] = perCall(n, func() {
		_, _ = (&campaign.Runner{Workers: 1}).Run(context.Background(), noop) // a no-op extractor cannot fail
	})

	base := canely.DefaultConfig()
	base.Substrate = canely.SubstrateFast
	spec := experiments.CrashQoSSpec(base, campaignNodes, nil, campaign.SeedRange{Base: 1, N: 600})
	rate := func(workers int) float64 {
		return 1 / perCall(spec.TotalRuns(), func() {
			_, _ = (&campaign.Runner{Workers: workers}).Run(context.Background(), spec) // failures show in campaign_fast
		})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the second worker needs a second P
	w1 := rate(1)
	out["campaign.scaling_w2"] = rate(2) / w1
}

func layerExplore(out map[string]float64) {
	const n = 256
	scen := explore.DefaultScenario()
	sys, err := explore.NewSystem(&scen, nil)
	if err != nil {
		panic(err) // the package's own default
	}
	out["explore.new_system_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			_, _ = explore.NewSystem(&scen, nil)
		}
	})
	out["explore.snapshot_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			sys.Snapshot()
		}
	})
	dst := sys.Snapshot()
	out["explore.restore_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			dst.Restore(sys)
		}
	})
	var h maphash.Hash
	out["explore.fingerprint_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			sys.Fingerprint(&h)
		}
		sink += h.Sum64()
	})
}

func layerWire(out map[string]float64) {
	const n = 4096
	msg := wire.Msg{Kind: wire.KindFrame, Frame: dataFrame(1, 9, 4), Own: true}
	var rec [wire.MsgSize]byte
	out["wire.encode_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			msg.Encode(&rec)
		}
		sink += uint64(rec[0])
	})
	out["wire.decode_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			m, _ := wire.Decode(rec)
			sink += uint64(m.Frame.ID)
		}
	})
	var buf bytes.Buffer
	out["wire.write_read_ns"] = perCall(n, func() {
		for i := 0; i < n; i++ {
			_ = wire.Write(&buf, msg) // a bytes.Buffer does not fail
			m, _ := wire.Read(&buf)
			sink += uint64(m.Frame.ID)
		}
	})
}

func layerLoop(out map[string]float64) {
	const n = 4096
	loop := rt.StartLoop()
	defer loop.Close()
	done := make(chan struct{})
	out["rt.loop_post_ns"] = perCall(n, func() {
		for i := 0; i < n-1; i++ {
			loop.Post(nop)
		}
		loop.Post(func() { done <- struct{}{} })
		<-done
	})
	out["rt.loop_call_ns"] = perCall(n/8, func() {
		for i := 0; i < n/8; i++ {
			loop.Call(nop)
		}
	})
}
