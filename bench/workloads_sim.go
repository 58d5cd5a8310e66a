package main

import (
	"context"
	"reflect"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/can"
	"canely/internal/datagram"
	"canely/internal/experiments"
	"canely/internal/gossip"
)

// slice is the virtual time one simulated-network operation advances: the
// three network workloads drive their scheduler in slices of this length,
// each timed as one operation.
const slice = 100 * time.Millisecond

// ---- campaign_fast / campaign_bit ----

const (
	campaignNodes = 8
	// campaignStride is the seed distance between batches: batch b of
	// either substrate sweeps seeds base+b*stride upward, so campaign_bit's
	// seeds are the first perPoint seeds of campaign_fast's batch b.
	campaignStride = 750
)

var campaignTb = []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}

type campaignInst struct {
	e        *env
	sub      canely.Substrate
	perPoint int // seeds per grid point per batch
}

func startCampaign(sub canely.Substrate, perPoint int) func(*env) (instance, error) {
	return func(e *env) (instance, error) {
		if e.hooks != nil {
			e.hooks.observer = campaignNodes - 1 // CrashQoSSpec never crashes the highest node
		}
		return &campaignInst{e: e, sub: sub, perPoint: e.scaled(perPoint)}, nil
	}
}

// spec builds batch b's campaign on substrate sub. With m set, every
// extractor call is timed as one operation.
func (c *campaignInst) spec(sub canely.Substrate, b int, m *meter) *campaign.Spec {
	base := canely.DefaultConfig()
	base.Substrate = sub
	if m != nil {
		base.Hooks = c.e.canelyHooks()
	}
	axes := []campaign.Axis{campaign.DurationAxis("tb",
		func(cfg *canely.Config, v time.Duration) { cfg.Tb = v }, campaignTb...)}
	seeds := campaign.SeedRange{Base: c.e.seed + int64(b+1)*campaignStride, N: c.perPoint}
	spec := experiments.CrashQoSSpec(base, campaignNodes, axes, seeds)
	if m == nil {
		return spec
	}
	inner := spec.Run
	spec.Run = func(p campaign.Params) (map[string]float64, error) {
		t := time.Now()
		sp := m.tr.begin("campaign.extractor")
		out, err := inner(p)
		m.tr.end(sp)
		m.op(time.Since(t))
		if p.Config.Scheduler != nil {
			m.obs.count("sim.events_fired", float64(p.Config.Scheduler.Fired()))
		}
		return out, err
	}
	return spec
}

func (c *campaignInst) batch(b int, m *meter) {
	spec := c.spec(c.sub, b, m)
	runner := campaign.Runner{Workers: 1}
	m.begin()
	sp := m.tr.begin("campaign.Runner.Run")
	results, err := runner.Run(context.Background(), spec)
	m.tr.end(sp)
	m.end(float64(spec.TotalRuns()))
	if err != nil {
		m.breach("campaign: %v", err)
		return
	}
	m.obs.count("canely.networks."+c.sub.String(), float64(len(results)))
	for _, r := range results {
		ok := !r.Failed() && r.Metrics["mistakes"] == 0 && r.Metrics["agreement_violations"] == 0
		m.check(ok, "run %d (%v seed %d): err=%q metrics=%v", r.Params.Index, r.Params.Labels, r.Params.Seed, r.Err, r.Metrics)
		if d, detected := r.Metrics["detection_ms"]; detected {
			m.obs.detect = append(m.obs.detect, d)
		}
		m.obs.foldFloat(r.Metrics["detection_ms"])
		m.obs.foldFloat(r.Metrics["mistakes"])
		m.obs.foldFloat(r.Metrics["agreement_violations"])
	}
	if c.sub == canely.SubstrateFast {
		return
	}
	// Substrate equivalence: the same (grid point, seed) on the fast
	// substrate must give the same per-run metrics. Untimed.
	ref, err := (&campaign.Runner{Workers: 1}).Run(context.Background(), c.spec(canely.SubstrateFast, b, nil))
	if err != nil {
		m.breach("campaign (fast reference): %v", err)
		return
	}
	for i, r := range results {
		if r.Err != ref[i].Err || !reflect.DeepEqual(r.Metrics, ref[i].Metrics) {
			m.breach("run %d (%v seed %d): bit %v %q != fast %v %q", i, r.Params.Labels, r.Params.Seed,
				r.Metrics, r.Err, ref[i].Metrics, ref[i].Err)
		}
	}
}

func (c *campaignInst) close() {}

// ---- steady_traffic / churn_faults ----

const (
	netNodes = 32
	// netSlices is the batch length of both 32-node workloads: 30 virt s.
	netSlices = 300
)

// newNet32 builds and bootstraps a 32-node fast-substrate network. Ttd is
// raised from the default 2 ms: when 32 nodes sign life at the same instant
// the burst occupies the wire for 2.2 ms, and under the default bound the
// detectors suspect whoever signs last.
func newNet32(e *env, cfg canely.Config) *canely.Network {
	cfg.Substrate = canely.SubstrateFast
	cfg.Ttd = 4 * time.Millisecond
	cfg.Hooks = e.canelyHooks()
	sp := e.tr.begin("canely.NewNetwork")
	net := canely.NewNetwork(cfg, netNodes)
	e.tr.end(sp)
	sp = e.tr.begin("canely.BootstrapAll")
	net.BootstrapAll()
	e.tr.end(sp)
	return net
}

// runSlices advances net by n slices, each timed as one operation, calling
// between(i) (if set) before slice i.
func runSlices(net *canely.Network, n int, m *meter, between func(i int)) {
	for i := 0; i < n; i++ {
		if between != nil {
			between(i)
		}
		t := time.Now()
		sp := m.tr.begin("canely.Network.Run")
		net.Run(slice)
		m.tr.end(sp)
		m.op(time.Since(t))
	}
}

// checkViews counts one attempt per live member and one failure for each
// whose view differs from ref's, and folds the views into the digest.
func checkViews(net *canely.Network, ref canely.NodeID, m *meter) {
	want := net.Node(ref).View()
	for _, nd := range net.Nodes() {
		m.obs.fold(uint64(nd.View()))
		if nd.Alive() && nd.Member() {
			m.check(nd.View() == want, "node %v view %v != node %v view %v", nd.ID(), nd.View(), ref, want)
		}
	}
}

type steadyInst struct {
	e      *env
	net    *canely.Network
	slices int
	last   canely.BusStats
	fired  uint64
}

func startSteady(e *env) (instance, error) {
	cfg := canely.DefaultConfig()
	cfg.Seed = e.seed
	net := newNet32(e, cfg)
	for i := 0; i < 8; i++ {
		net.Node(canely.NodeID(i)).StartCyclicTraffic(1, 5*time.Millisecond, []byte{1, 2, 3, 4})
	}
	return &steadyInst{e: e, net: net, slices: e.scaled(netSlices), last: net.Stats()}, nil
}

func (s *steadyInst) batch(_ int, m *meter) {
	m.begin()
	runSlices(s.net, s.slices, m, nil)
	m.end(float64(s.slices) * slice.Seconds())

	now := s.net.Stats()
	m.obs.addBus("fastbus", now.Sub(s.last), time.Duration(s.slices)*slice)
	s.last = now
	fired := s.net.Scheduler().Fired()
	m.obs.count("sim.events_fired", float64(fired-s.fired))
	s.fired = fired
	checkViews(s.net, 0, m)
}

func (s *steadyInst) close() {}

const (
	churnObserver = 15 // highest node that neither crashes nor toggles
	churnSettle   = 10 // slices at the end of a batch without toggles
)

type churnInst struct {
	e      *env
	slices int
}

func startChurn(e *env) (instance, error) {
	if e.hooks != nil {
		e.hooks.observer = churnObserver
	}
	return &churnInst{e: e, slices: e.scaled(netSlices)}, nil
}

func (c *churnInst) batch(b int, m *meter) {
	cfg := canely.DefaultConfig()
	cfg.Seed = c.e.seed + int64(b+1)
	cfg.PCorrupt = 0.01
	cfg.PInconsistent = 0.002
	net := newNet32(c.e, cfg)

	// The observer times each crash and reports anything else it is told
	// has failed as a mistake.
	var crashed canely.NodeSet
	crashAt := map[canely.NodeID]time.Duration{}
	net.Node(churnObserver).OnChange(func(ch canely.Change) {
		for _, id := range ch.Failed.IDs() {
			at, pending := crashAt[id]
			switch {
			case pending:
				m.obs.detect = append(m.obs.detect, float64(net.Now()-at)/1e6)
				delete(crashAt, id)
			case !crashed.Contains(id):
				m.check(false, "batch %d: node %v reported failed but never crashed", b, id)
			}
		}
	})

	// Crashes of nodes 8..11 at 1/6, 2/6, 3/6, 4/6 of the batch (5, 10, 15,
	// 20 virt s); a leave/join toggle round-robin over nodes 16..31 every
	// other slice (200 virt ms) until the settle window.
	out := [netNodes]bool{}
	toggles := 0
	between := func(i int) {
		if k := i * 6 / c.slices; k >= 1 && k <= 4 && i == k*c.slices/6 {
			victim := canely.NodeID(7 + k)
			crashAt[victim] = net.Now()
			crashed = crashed.Add(victim)
			net.Node(victim).Crash()
		}
		if i%2 == 0 && i < c.slices-churnSettle {
			id := 16 + toggles%16
			toggles++
			if out[id] {
				net.Node(canely.NodeID(id)).Join()
			} else {
				net.Node(canely.NodeID(id)).Leave()
			}
			out[id] = !out[id]
		}
	}

	m.begin()
	runSlices(net, c.slices, m, between)
	m.end(float64(c.slices) * slice.Seconds())

	m.obs.addBus("fastbus", net.Stats(), time.Duration(c.slices)*slice)
	m.obs.count("sim.events_fired", float64(net.Scheduler().Fired()))
	for _, id := range crashed.IDs() {
		_, missed := crashAt[id]
		m.check(!missed, "batch %d: crash of node %v never detected", b, id)
	}
	checkViews(net, churnObserver, m)
}

func (c *churnInst) close() {}

// ---- gossip_lossy ----

const (
	gossipNodes = 48
	// gossipSlices is the batch length: 60 virt s.
	gossipSlices = 600
	// gossipPoll is how often node 0's dead set is polled for a detection.
	gossipPoll = 5 * time.Millisecond
)

var gossipVictims = []can.NodeID{3, 17, 31}

type gossipInst struct {
	e      *env
	slices int
}

func startGossip(e *env) (instance, error) {
	return &gossipInst{e: e, slices: e.scaled(gossipSlices)}, nil
}

func (g *gossipInst) batch(b int, m *meter) {
	sp := m.tr.begin("gossip.NewNetwork")
	nw, err := gossip.NewNetwork(gossip.NetworkConfig{
		Nodes: gossipNodes,
		Core:  gossip.DefaultConfig(),
		Rate:  can.Rate1Mbps,
		Link:  datagram.LinkParams{Drop: 0.05, DelayMin: 200 * time.Microsecond, DelayJitter: 100 * time.Microsecond},
		Seed:  g.e.seed + int64(b+1),
	})
	m.tr.end(sp)
	if err != nil {
		m.breach("gossip.NewNetwork: %v", err)
		return
	}
	all := can.RangeSet(0, gossipNodes)
	nw.Bootstrap(all)

	// Crashes at 1/6, 5/12 and 2/3 of the batch (10, 25, 40 virt s).
	crashSlice := []int{g.slices / 6, g.slices * 5 / 12, g.slices * 2 / 3}
	var crashed can.NodeSet
	crashAt := map[can.NodeID]time.Duration{}
	now := func() time.Duration { return time.Duration(nw.Sched.Now()) }

	m.begin()
	for i := 0; i < g.slices; i++ {
		for k, at := range crashSlice {
			if i == at {
				crashAt[gossipVictims[k]] = now()
				crashed = crashed.Add(gossipVictims[k])
				nw.Crash(gossipVictims[k])
			}
		}
		t := time.Now()
		sp := m.tr.begin("gossip.Network.RunFor")
		for p := time.Duration(0); p < slice; p += gossipPoll {
			nw.RunFor(gossipPoll)
			if len(crashAt) == 0 {
				continue
			}
			dead := nw.Core(0).Dead()
			for _, id := range gossipVictims {
				if at, pending := crashAt[id]; pending && dead.Contains(id) {
					m.obs.detect = append(m.obs.detect, float64(now()-at)/1e6)
					delete(crashAt, id)
				}
			}
		}
		m.tr.end(sp)
		m.op(time.Since(t))
	}
	m.end(float64(g.slices) * slice.Seconds())

	stats := nw.Net.Stats()
	m.obs.addBus("datagram", stats, time.Duration(g.slices)*slice)
	m.obs.count("datagram.dropped", float64(nw.Net.Dropped()))
	m.obs.count("sim.events_fired", float64(nw.Sched.Fired()))
	for _, id := range gossipVictims {
		_, missed := crashAt[id]
		m.check(!missed, "batch %d: crash of node %v never seen dead by node 0", b, id)
	}
	// Completeness is what SWIM guarantees: no live node may still hold a
	// crashed one in its view. Accuracy it does not: on a lossy medium a live
	// node can be declared dead for good, which is counted, not failed.
	for i := 0; i < gossipNodes; i++ {
		id := can.NodeID(i)
		view := nw.Core(id).View()
		m.obs.fold(uint64(view))
		if crashed.Contains(id) {
			continue
		}
		m.check(view.Intersect(crashed).Empty(), "batch %d: node %v view %v still holds a crashed node", b, id, view)
		if view.Union(crashed) != all {
			m.obs.count("gossip.false_dead_views", 1)
		}
	}
}

func (g *gossipInst) close() {}
