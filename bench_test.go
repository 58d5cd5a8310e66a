// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablation studies called out in DESIGN.md. Each
// benchmark reports the reproduced quantities as custom metrics (all time
// figures are *virtual* bus time — the simulation itself runs much faster).
//
// Experiment index:
//
//	BenchmarkFigure1Table           — Figure 1 (TTP vs CAN attribute table)
//	BenchmarkFigure10Analytical     — Figure 10, analytical worst case
//	BenchmarkFigure10Measured       — Figure 10, measured from simulation
//	BenchmarkFigure11Inaccessibility— Figure 11, inaccessibility rows
//	BenchmarkFigure11Membership     — Figure 11, membership latency cell
//	BenchmarkRelatedWorkLatency     — §6.6 CANELy vs OSEK vs CANopen
//	BenchmarkFDADiffusion           — FDA cost per failure-sign broadcast
//	BenchmarkRHAAgreement           — RHA cost per join/leave agreement
//	BenchmarkMembershipCycle        — steady-state cycle engine throughput
//	BenchmarkCampaignThroughput     — campaign engine scaling across workers
//	BenchmarkAblation*              — design-choice ablations
package canely_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"canely"
	"canely/internal/analysis"
	"canely/internal/bus"
	"canely/internal/campaign"
	"canely/internal/can"
	"canely/internal/canlayer"
	"canely/internal/core/fd"
	"canely/internal/core/proto"
	"canely/internal/edcan"
	"canely/internal/experiments"
	"canely/internal/fptest"
	"canely/internal/sim"
)

// BenchmarkFigure1Table regenerates the Figure 1 comparison table.
func BenchmarkFigure1Table(b *testing.B) {
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		s = analysis.Figure1().String()
	}
	b.ReportMetric(float64(len(s)), "table-bytes")
}

// BenchmarkFigure10Analytical evaluates the analytical bandwidth model over
// the paper's full x-axis and reports the curve endpoints.
func BenchmarkFigure10Analytical(b *testing.B) {
	b.ReportAllocs()
	m := analysis.DefaultModel()
	var rows []analysis.Figure10Row
	for i := 0; i < b.N; i++ {
		rows = Figure10Rows(m)
	}
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(100*first.Utilization[analysis.SeriesNoChanges], "util%-nochg@30ms")
	b.ReportMetric(100*first.Utilization[analysis.SeriesMultiJoinLeave], "util%-multi@30ms")
	b.ReportMetric(100*last.Utilization[analysis.SeriesNoChanges], "util%-nochg@90ms")
	b.ReportMetric(100*last.Utilization[analysis.SeriesMultiJoinLeave], "util%-multi@90ms")
}

// Figure10Rows is the sweep used by the analytical benchmark.
func Figure10Rows(m analysis.BandwidthModel) []analysis.Figure10Row {
	return analysis.Figure10(m, nil)
}

// BenchmarkFigure10Measured reproduces Figure 10 from full-stack
// simulation (n=32, b=8, f=4, c∈{0,1,20}) at the x-axis endpoints.
func BenchmarkFigure10Measured(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.DefaultFigure10Config()
	tms := []time.Duration{30 * time.Millisecond, 90 * time.Millisecond}
	var points []experiments.Figure10Point
	for i := 0; i < b.N; i++ {
		points = experiments.MeasureFigure10(cfg, tms)
	}
	for _, p := range points {
		if p.Tm == 30*time.Millisecond {
			switch p.Series {
			case analysis.SeriesNoChanges:
				b.ReportMetric(100*p.Measured, "util%-nochg@30ms")
			case analysis.SeriesCrashFailures:
				b.ReportMetric(100*p.Measured, "util%-crash@30ms")
			case analysis.SeriesJoinLeave:
				b.ReportMetric(100*p.Measured, "util%-join@30ms")
			case analysis.SeriesMultiJoinLeave:
				b.ReportMetric(100*p.Measured, "util%-multi@30ms")
			}
		}
	}
}

// BenchmarkFigure11Inaccessibility reproduces the inaccessibility rows of
// Figure 11 (CAN 14-2880 bit times, CANELy 14-2160).
func BenchmarkFigure11Inaccessibility(b *testing.B) {
	b.ReportAllocs()
	var canLo, canHi, elyLo, elyHi int
	for i := 0; i < b.N; i++ {
		canLo, canHi = analysis.CANInaccessibility().Bounds()
		elyLo, elyHi = analysis.CANELyInaccessibility().Bounds()
	}
	b.ReportMetric(float64(canLo), "can-min-bits")
	b.ReportMetric(float64(canHi), "can-max-bits")
	b.ReportMetric(float64(elyLo), "canely-min-bits")
	b.ReportMetric(float64(elyHi), "canely-max-bits")
}

// BenchmarkFigure11Membership measures the Figure 11 membership latency
// cell ("tens of ms") from simulation.
func BenchmarkFigure11Membership(b *testing.B) {
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		lat := experiments.MeasureMembershipLatency(5, int64(i+1))
		mean = lat.Mean()
	}
	b.ReportMetric(mean/1e6, "virt-ms-mean")
}

// BenchmarkRelatedWorkLatency reproduces the §6.6 comparison: CANELy in
// tens of virtual ms, OSEK NM near one virtual second, CANopen between.
func BenchmarkRelatedWorkLatency(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.DefaultLatencyConfig()
	cfg.Trials = 3
	var results []experiments.LatencyResult
	for i := 0; i < b.N; i++ {
		results = experiments.MeasureAllLatencies(cfg)
	}
	for _, r := range results {
		switch r.Scheme {
		case "CANELy":
			b.ReportMetric(r.Measured.Mean()/1e6, "canely-virt-ms")
		case "OSEK NM":
			b.ReportMetric(r.Measured.Mean()/1e6, "osek-virt-ms")
		case "CANopen guarding":
			b.ReportMetric(r.Measured.Mean()/1e6, "canopen-virt-ms")
		}
	}
}

// fdaAgent binds a bare FDA core to a CAN layer — the minimal runtime
// needed to benchmark the diffusion protocol in isolation.
type fdaAgent struct {
	layer *canlayer.Layer
	core  *fd.FDA
}

func newFDAAgent(layer *canlayer.Layer) *fdaAgent {
	a := &fdaAgent{layer: layer, core: fd.NewFDA()}
	layer.HandleRTRInd(func(mid can.MID) {
		a.exec(fptest.Emit(a.core, proto.Event{Kind: proto.EvRTRInd, MID: mid}))
	})
	return a
}

func (a *fdaAgent) Request(failed can.NodeID) {
	a.exec(fptest.Emit(a.core, proto.Event{Kind: proto.EvFDARequest, Node: failed}))
}

func (a *fdaAgent) exec(cmds []proto.Command) {
	for _, c := range cmds {
		switch c.Kind {
		case proto.CmdSendRTR:
			if c.UnlessPending && a.layer.PendingEquivalentRTR(c.MID) {
				continue
			}
			_ = a.layer.RTRReq(c.MID)
		case proto.CmdAbort:
			a.layer.AbortReq(c.MID)
		}
	}
}

// BenchmarkFDADiffusion measures the wire cost of one complete FDA
// failure-sign agreement across 32 nodes: the paper's design target is two
// physical frames thanks to remote-frame clustering.
func BenchmarkFDADiffusion(b *testing.B) {
	b.ReportAllocs()
	var frames int
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		bs := bus.New(sched, bus.Config{})
		for n := 0; n < 32; n++ {
			newFDAAgent(canlayer.New(bs.Attach(can.NodeID(n))))
		}
		agent := newFDAAgent(canlayer.New(bs.Attach(can.NodeID(32))))
		agent.Request(63)
		sched.Run()
		frames = bs.Stats().FramesOK
	}
	b.ReportMetric(float64(frames), "frames/failure-sign")
}

// BenchmarkRHAAgreement measures one RHA execution agreeing on a join in a
// 16-member view: virtual wall time and wire frames.
func BenchmarkRHAAgreement(b *testing.B) {
	b.ReportAllocs()
	var frames int
	var virt time.Duration
	for i := 0; i < b.N; i++ {
		cfg := canely.DefaultConfig()
		net := canely.NewNetwork(cfg, 17)
		var view canely.NodeSet
		for n := 0; n < 16; n++ {
			view = view.Add(canely.NodeID(n))
		}
		for n := 0; n < 16; n++ {
			net.Node(canely.NodeID(n)).Bootstrap(view)
		}
		net.Run(20 * time.Millisecond)
		before := net.Stats()
		start := net.Now()
		var joined time.Duration
		net.Node(16).OnChange(func(c canely.Change) {
			if joined == 0 && c.Active.Contains(16) {
				joined = net.Now()
			}
		})
		net.Node(16).Join()
		net.Run(2 * cfg.Tm)
		frames = int(net.Stats().Sub(before).BitsByType[can.TypeRHA])
		virt = joined - start
	}
	b.ReportMetric(float64(frames), "rha-bits/join")
	b.ReportMetric(float64(virt)/1e6, "virt-ms/join")
}

// BenchmarkMembershipCycle measures simulator throughput for the
// steady-state membership engine: virtual seconds simulated per wall
// second for a 32-node network.
func BenchmarkMembershipCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := canely.DefaultConfig()
		net := canely.NewNetwork(cfg, 32)
		net.BootstrapAll()
		net.Run(time.Second)
	}
	b.ReportMetric(1000, "virt-ms/op")
}

// BenchmarkCampaignThroughput measures the simulation-campaign engine's
// scaling along two axes: the substrate (bit-accurate vs fast frame-level)
// and the worker count (1, 2, 4, GOMAXPROCS) on a fixed 32-run crash-QoS
// campaign (n=8). Runs are independent single-threaded simulations, so
// throughput should scale near-linearly until the core count is exhausted;
// the fast substrate multiplies whatever the worker ladder achieves.
func BenchmarkCampaignThroughput(b *testing.B) {
	b.ReportAllocs()
	const runs = 32
	for _, sub := range []canely.Substrate{canely.SubstrateBitAccurate, canely.SubstrateFast} {
		benchmarkCampaignLadder(b, sub, runs)
	}
}

func benchmarkCampaignLadder(b *testing.B, sub canely.Substrate, runs int) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("substrate=%v/workers=%d", sub, workers), func(b *testing.B) {
			cfg := canely.DefaultConfig()
			cfg.Substrate = sub
			spec := experiments.CrashQoSSpec(cfg, 8, nil,
				campaign.SeedRange{Base: 1, N: runs})
			runner := campaign.Runner{Workers: workers}
			var total int
			for i := 0; i < b.N; i++ {
				results, err := runner.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Failed() {
						b.Fatalf("run %d failed: %s", r.Params.Index, r.Err)
					}
				}
				total += len(results)
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}

// BenchmarkAblationImplicitHeartbeats quantifies the bandwidth saved by
// using application traffic as implicit heartbeats (§6.1/§6.3): ELS bits
// with and without cyclic application traffic.
func BenchmarkAblationImplicitHeartbeats(b *testing.B) {
	b.ReportAllocs()
	run := func(implicit bool) int64 {
		cfg := canely.DefaultConfig()
		net := canely.NewNetwork(cfg, 8)
		net.BootstrapAll()
		if implicit {
			for _, nd := range net.Nodes() {
				nd.StartCyclicTraffic(1, cfg.Tb/2, []byte{1, 2})
			}
		}
		net.Run(time.Second)
		return net.Stats().BitsByType[can.TypeELS]
	}
	var with, without int64
	for i := 0; i < b.N; i++ {
		without = run(false)
		with = run(true)
	}
	b.ReportMetric(float64(without), "els-bits-explicit")
	b.ReportMetric(float64(with), "els-bits-implicit")
}

// BenchmarkAblationClustering compares the wire cost of a reliable
// failure-sign broadcast under FDA (clusterable remote frames) against the
// generic EDCAN diffusion of data frames: the clustering is what keeps the
// agreement at ~2 frames instead of ~n.
func BenchmarkAblationClustering(b *testing.B) {
	b.ReportAllocs()
	const nodes = 16
	var fdaFrames, edcanFrames int
	for i := 0; i < b.N; i++ {
		// FDA over remote frames.
		sched := sim.NewScheduler()
		bs := bus.New(sched, bus.Config{})
		var agents []*fdaAgent
		for n := 0; n < nodes; n++ {
			agents = append(agents, newFDAAgent(canlayer.New(bs.Attach(can.NodeID(n)))))
		}
		agents[0].Request(63)
		sched.Run()
		fdaFrames = bs.Stats().FramesOK

		// EDCAN over data frames, no duplicate suppression (J large) to
		// expose the raw diffusion cost.
		sched2 := sim.NewScheduler()
		bs2 := bus.New(sched2, bus.Config{})
		var bcs []*edcan.Broadcaster
		for n := 0; n < nodes; n++ {
			bc, err := edcan.New(canlayer.New(bs2.Attach(can.NodeID(n))), edcan.Config{J: nodes})
			if err != nil {
				b.Fatal(err)
			}
			bcs = append(bcs, bc)
		}
		if _, err := bcs[0].Broadcast([]byte{63}); err != nil {
			b.Fatal(err)
		}
		sched2.Run()
		edcanFrames = bs2.Stats().FramesOK
	}
	b.ReportMetric(float64(fdaFrames), "fda-frames")
	b.ReportMetric(float64(edcanFrames), "edcan-frames")
}

// BenchmarkAblationRHASkip quantifies the saving of skipping RHA when no
// join/leave is pending (Figure 9 line s22).
func BenchmarkAblationRHASkip(b *testing.B) {
	b.ReportAllocs()
	run := func(skip bool) int64 {
		cfg := canely.DefaultConfig()
		cfg.RHAEveryCycle = !skip
		net := canely.NewNetwork(cfg, 8)
		net.BootstrapAll()
		net.Run(time.Second)
		return net.Stats().BitsByType[can.TypeRHA]
	}
	var withSkip, withoutSkip int64
	for i := 0; i < b.N; i++ {
		withSkip = run(true)
		withoutSkip = run(false)
	}
	b.ReportMetric(float64(withSkip), "rha-bits-skip")
	b.ReportMetric(float64(withoutSkip), "rha-bits-everycycle")
}

// BenchmarkAblationDuplicateBound quantifies the LCAN4 duplicate
// suppression bound j in EDCAN: frames per broadcast at j=1 vs j=n.
func BenchmarkAblationDuplicateBound(b *testing.B) {
	b.ReportAllocs()
	const nodes = 16
	run := func(j int) int {
		sched := sim.NewScheduler()
		bs := bus.New(sched, bus.Config{})
		var bcs []*edcan.Broadcaster
		for n := 0; n < nodes; n++ {
			bc, err := edcan.New(canlayer.New(bs.Attach(can.NodeID(n))), edcan.Config{J: j})
			if err != nil {
				b.Fatal(err)
			}
			bcs = append(bcs, bc)
		}
		if _, err := bcs[0].Broadcast([]byte{1}); err != nil {
			b.Fatal(err)
		}
		sched.Run()
		return bs.Stats().FramesOK
	}
	var tight, loose int
	for i := 0; i < b.N; i++ {
		tight = run(1)
		loose = run(nodes)
	}
	b.ReportMetric(float64(tight), "frames-j1")
	b.ReportMetric(float64(loose), "frames-jn")
}

// BenchmarkAblationLazyVsEager compares the two [18] reliable broadcast
// strategies this suite builds on: RELCAN's lazy confirm (2 frames
// fault-free, diffusion only on sender death) against EDCAN's eager
// diffusion (pays the fan-out on every broadcast).
func BenchmarkAblationLazyVsEager(b *testing.B) {
	b.ReportAllocs()
	const nodes = 16
	var lazyFrames, eagerFrames int
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		bs := bus.New(sched, bus.Config{})
		var rels []*edcan.RELCAN
		for n := 0; n < nodes; n++ {
			rel, err := edcan.NewRELCAN(sched, canlayer.New(bs.Attach(can.NodeID(n))),
				edcan.RELCANConfig{Timeout: 2 * time.Millisecond, J: 2})
			if err != nil {
				b.Fatal(err)
			}
			rels = append(rels, rel)
		}
		if _, err := rels[0].Broadcast([]byte{1}); err != nil {
			b.Fatal(err)
		}
		sched.Run()
		lazyFrames = bs.Stats().FramesOK

		sched2 := sim.NewScheduler()
		bs2 := bus.New(sched2, bus.Config{})
		var bcs []*edcan.Broadcaster
		for n := 0; n < nodes; n++ {
			bc, err := edcan.New(canlayer.New(bs2.Attach(can.NodeID(n))), edcan.Config{J: nodes})
			if err != nil {
				b.Fatal(err)
			}
			bcs = append(bcs, bc)
		}
		if _, err := bcs[0].Broadcast([]byte{1}); err != nil {
			b.Fatal(err)
		}
		sched2.Run()
		eagerFrames = bs2.Stats().FramesOK
	}
	b.ReportMetric(float64(lazyFrames), "relcan-frames")
	b.ReportMetric(float64(eagerFrames), "edcan-frames")
}
