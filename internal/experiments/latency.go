package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"canely"
	"canely/internal/analysis"
	"canely/internal/baselines"
	"canely/internal/bus"
	"canely/internal/campaign"
	"canely/internal/can"
	"canely/internal/canlayer"
	"canely/internal/sim"
)

// LatencyResult summarizes one scheme's measured detection latencies.
type LatencyResult struct {
	Scheme string
	// Measured holds the crash-to-detection latencies in ns, in trial order.
	Measured campaign.Sample
	Bound    time.Duration
	// Failed counts trials that never detected the crash (always 0 in the
	// paper's operating envelope; campaigns record rather than panic).
	Failed int
}

// p99 returns the interpolated 99th percentile of a latency Sample (ns),
// rounded to the nanosecond.
func p99(s *campaign.Sample) time.Duration {
	return time.Duration(math.Round(s.Quantile(0.99)))
}

// LatencyConfig parameterizes the §6.6 related-work comparison (experiment
// E4): the same crash, detected by CANELy, by the OSEK NM logical ring and
// by CANopen node guarding, over several trials. Trials is free — the
// campaign engine runs them in parallel — and Workers bounds the pool
// (0 = GOMAXPROCS).
type LatencyConfig struct {
	N       int
	Trials  int
	Seed    int64
	Workers int
	CANELy  canely.Config
	OSEK    baselines.OSEKConfig
	NMT     baselines.CANopenConfig
}

// DefaultLatencyConfig returns the reference comparison point.
func DefaultLatencyConfig() LatencyConfig {
	return LatencyConfig{
		N:      8,
		Trials: 10,
		Seed:   1,
		CANELy: canely.DefaultConfig(),
		OSEK:   baselines.DefaultOSEKConfig(),
		NMT:    baselines.DefaultCANopenConfig(),
	}
}

// latencyTrial is one scheme-specific seeded crash trial: it returns the
// crash-to-detection latency.
type latencyTrial func(p campaign.Params) (time.Duration, error)

// measureLatencyCampaign fans the trials of one scheme out over the
// campaign worker pool and folds the detection samples back into a
// LatencyResult in trial order, so the distribution is identical to the old
// sequential loop regardless of the worker count.
func measureLatencyCampaign(scheme string, c LatencyConfig, bound time.Duration, trial latencyTrial) LatencyResult {
	res := LatencyResult{Scheme: scheme, Bound: bound}
	type sample struct {
		d  time.Duration
		ok bool
	}
	samples := make([]sample, c.Trials)
	spec := &campaign.Spec{
		Name:  scheme,
		Base:  c.CANELy,
		Seeds: campaign.SeedRange{Base: c.Seed, N: c.Trials},
		Run: func(p campaign.Params) (map[string]float64, error) {
			d, err := trial(p)
			if err != nil {
				return nil, err
			}
			// Each run owns its slice element: parallel writes never alias.
			samples[p.Index] = sample{d: d, ok: true}
			return map[string]float64{"detection_ms": float64(d) / 1e6}, nil
		},
	}
	mustRun(spec, c.Workers)
	for _, s := range samples {
		if s.ok {
			res.Measured.Add(float64(s.d))
		} else {
			res.Failed++
		}
	}
	return res
}

// MeasureCANELyLatency measures crash-to-notification latency of the
// CANELy failure detection + membership suite across Trials parallel
// seeded runs.
func MeasureCANELyLatency(c LatencyConfig) LatencyResult {
	return measureLatencyCampaign("CANELy", c, c.CANELy.DetectionLatencyBound(),
		func(p campaign.Params) (time.Duration, error) {
			victim := canely.NodeID(p.Trial % (c.N - 1))
			q := CrashTrial(p.Config, c.N, victim, time.Duration(p.Trial)*3*time.Millisecond)
			if !q.Detected {
				return 0, fmt.Errorf("CANELy trial %d never detected the crash", p.Trial)
			}
			return q.DetectionTime, nil
		})
}

// MeasureOSEKLatency measures the same crash under the OSEK NM ring.
func MeasureOSEKLatency(c LatencyConfig) LatencyResult {
	model := analysis.RelatedWorkModel{N: c.N, OSEKTTyp: c.OSEK.TTyp, OSEKTMax: c.OSEK.TMax}
	return measureLatencyCampaign("OSEK NM", c, model.OSEKLatency(),
		func(p campaign.Params) (time.Duration, error) {
			trial := p.Trial
			sched := sim.NewScheduler()
			b := bus.New(sched, bus.Config{})
			var ring can.NodeSet
			for i := 0; i < c.N; i++ {
				ring = ring.Add(can.NodeID(i))
			}
			ports := make([]*bus.Port, c.N)
			nodes := make([]*baselines.OSEKNode, c.N)
			var detected sim.Time
			victim := can.NodeID(1 + trial%(c.N-1))
			for i := 0; i < c.N; i++ {
				ports[i] = b.Attach(can.NodeID(i))
				n, err := baselines.NewOSEKNode(sched, canlayer.New(ports[i]), ring, c.OSEK)
				if err != nil {
					panic(err)
				}
				n.OnAbsent(func(gone can.NodeID) {
					if gone == victim && detected == 0 {
						detected = sched.Now()
					}
				})
				nodes[i] = n
			}
			for _, n := range nodes {
				n.Start()
			}
			sched.RunUntil(sim.Time(50*time.Millisecond + time.Duration(trial)*37*time.Millisecond))
			crashAt := sched.Now()
			ports[victim].Crash()
			sched.RunUntil(crashAt.Add(2 * model.OSEKLatency()))
			if detected == 0 {
				return 0, fmt.Errorf("OSEK trial %d never detected the crash", trial)
			}
			return detected.Sub(crashAt), nil
		})
}

// MeasureCANopenLatency measures the same crash under master-slave node
// guarding.
func MeasureCANopenLatency(c LatencyConfig) LatencyResult {
	model := analysis.RelatedWorkModel{
		CANopenGuardTime:  c.NMT.GuardTime,
		CANopenLifeFactor: c.NMT.LifeFactor,
	}
	return measureLatencyCampaign("CANopen guarding", c, model.CANopenLatency(),
		func(p campaign.Params) (time.Duration, error) {
			trial := p.Trial
			sched := sim.NewScheduler()
			b := bus.New(sched, bus.Config{})
			ports := make([]*bus.Port, c.N)
			for i := 0; i < c.N; i++ {
				ports[i] = b.Attach(can.NodeID(i))
			}
			slaves := make([]can.NodeID, 0, c.N-1)
			for i := 1; i < c.N; i++ {
				slaves = append(slaves, can.NodeID(i))
				baselines.NewCANopenSlave(canlayer.New(ports[i]))
			}
			master, err := baselines.NewCANopenMaster(sched, canlayer.New(ports[0]), slaves, c.NMT)
			if err != nil {
				panic(err)
			}
			victim := can.NodeID(1 + trial%(c.N-1))
			var detected sim.Time
			master.OnLost(func(s can.NodeID) {
				if s == victim && detected == 0 {
					detected = sched.Now()
				}
			})
			master.Start()
			sched.RunUntil(sim.Time(250*time.Millisecond + time.Duration(trial)*23*time.Millisecond))
			crashAt := sched.Now()
			ports[victim].Crash()
			sched.RunUntil(crashAt.Add(3 * model.CANopenLatency()))
			if detected == 0 {
				return 0, fmt.Errorf("CANopen trial %d never detected the crash", trial)
			}
			return detected.Sub(crashAt), nil
		})
}

// MeasureTTPLatency measures crash-to-removal latency under the TTP TDMA
// membership model — the reference point of Figures 1 and 11 ("membership:
// provided"). Detection is bounded by one TDMA round plus a slot.
func MeasureTTPLatency(c LatencyConfig, slot time.Duration) LatencyResult {
	cfg := baselines.TTPConfig{Slot: slot}
	bound := cfg.MembershipLatencyBound(c.N)
	return measureLatencyCampaign("TTP (TDMA model)", c, bound,
		func(p campaign.Params) (time.Duration, error) {
			trial := p.Trial
			sched := sim.NewScheduler()
			cluster, err := baselines.NewTTPCluster(sched, c.N, cfg)
			if err != nil {
				panic(err)
			}
			victim := can.NodeID(1 + trial%(c.N-1))
			var detected sim.Time
			cluster.OnChange(0, func(_ can.NodeSet, failed can.NodeID) {
				if failed == victim && detected == 0 {
					detected = sched.Now()
				}
			})
			cluster.Start()
			sched.RunUntil(sim.Time(10*time.Millisecond + time.Duration(trial)*700*time.Microsecond))
			crashAt := sched.Now()
			cluster.Crash(victim)
			sched.RunUntil(crashAt.Add(3 * bound))
			if detected == 0 {
				return 0, fmt.Errorf("TTP trial %d never detected the crash", trial)
			}
			return detected.Sub(crashAt), nil
		})
}

// MeasureAllLatencies runs the full E4 comparison, with the TTP TDMA
// membership model (1 ms slots) included for the Figure 11 context.
func MeasureAllLatencies(c LatencyConfig) []LatencyResult {
	return []LatencyResult{
		MeasureCANELyLatency(c),
		MeasureOSEKLatency(c),
		MeasureCANopenLatency(c),
		MeasureTTPLatency(c, time.Millisecond),
	}
}

// FormatLatencies renders the comparison table.
func FormatLatencies(results []LatencyResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %5s %10s %10s %10s %10s %10s %12s\n",
		"scheme", "n", "min", "mean", "p99", "max", "±95% CI", "model bound")
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	for _, r := range results {
		m := &r.Measured
		fmt.Fprintf(&sb, "%-20s %5d %10v %10v %10v %10v %10v %12v\n",
			r.Scheme, m.N(), us(time.Duration(m.Min())), us(time.Duration(m.Mean())),
			us(p99(m)), us(time.Duration(m.Max())), us(time.Duration(m.CI95())), r.Bound)
	}
	return sb.String()
}

// MeasureMembershipLatency measures the Figure 11 "membership latency"
// cell: crash to membership-change notification under the default
// configuration, across trials, in ns. The paper reports "tens of ms".
func MeasureMembershipLatency(trials int, seed int64) campaign.Sample {
	c := DefaultLatencyConfig()
	c.Trials = trials
	c.Seed = seed
	return MeasureCANELyLatency(c).Measured
}

// TradeoffPoint is one point of the detection-latency / bandwidth
// trade-off sweep: the heartbeat period buys bandwidth at the price of
// latency.
type TradeoffPoint struct {
	Tb          time.Duration
	MeanLatency time.Duration
	P99Latency  time.Duration
	MaxLatency  time.Duration
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95  time.Duration
	Bound time.Duration
	// ELSUtilization is the life-sign share of the bus over the run.
	ELSUtilization float64
}

// MeasureLatencyBandwidthTradeoff sweeps the heartbeat period Tb and
// measures both the crash-detection latency and the explicit life-sign
// bandwidth — the engineering trade-off behind the paper's choice to derive
// node activity from implicit traffic wherever possible. The whole sweep is
// one campaign: the Tb axis × (trials crash runs + one steady-state
// bandwidth run) per point, all in parallel.
func MeasureLatencyBandwidthTradeoff(sub canely.Substrate, tbs []time.Duration, n, trials int, seed int64) []TradeoffPoint {
	if len(tbs) == 0 {
		tbs = []time.Duration{5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 40 * time.Millisecond}
	}
	base := canely.DefaultConfig()
	base.Substrate = sub
	type cell struct {
		d   time.Duration
		ok  bool
		els float64
	}
	cells := make([]cell, len(tbs)*(trials+1))
	spec := &campaign.Spec{
		Name: "latency-bandwidth-tradeoff",
		Base: base,
		Axes: []campaign.Axis{campaign.DurationAxis("tb",
			func(c *canely.Config, v time.Duration) { c.Tb = v }, tbs...)},
		Seeds: campaign.SeedRange{Base: seed, N: trials + 1},
		Run: func(p campaign.Params) (map[string]float64, error) {
			if p.Trial == trials {
				// The point's extra run: steady state, life-sign share.
				net := canely.NewNetwork(p.Config, n)
				net.BootstrapAll()
				net.Run(time.Second)
				els := net.Stats().TypeUtilization(p.Config.Rate, time.Second, can.TypeELS)
				cells[p.Index] = cell{els: els, ok: true}
				return map[string]float64{"els_util": els}, nil
			}
			victim := canely.NodeID(p.Trial % (n - 1))
			q := CrashTrial(p.Config, n, victim, time.Duration(p.Trial)*3*time.Millisecond)
			if !q.Detected {
				return nil, fmt.Errorf("tb=%v trial %d never detected the crash", p.Config.Tb, p.Trial)
			}
			cells[p.Index] = cell{d: q.DetectionTime, ok: true}
			return map[string]float64{"detection_ms": float64(q.DetectionTime) / 1e6}, nil
		},
	}
	mustRun(spec, 0)
	out := make([]TradeoffPoint, 0, len(tbs))
	for pi, tb := range tbs {
		var lat campaign.Sample
		var els float64
		for t := 0; t <= trials; t++ {
			c := cells[pi*(trials+1)+t]
			if !c.ok {
				continue
			}
			if t == trials {
				els = c.els
				continue
			}
			lat.Add(float64(c.d))
		}
		cfg := base
		cfg.Tb = tb
		out = append(out, TradeoffPoint{
			Tb:             tb,
			MeanLatency:    time.Duration(lat.Mean()),
			P99Latency:     p99(&lat),
			MaxLatency:     time.Duration(lat.Max()),
			CI95:           time.Duration(lat.CI95()),
			Bound:          cfg.DetectionLatencyBound(),
			ELSUtilization: els,
		})
	}
	return out
}

// FormatTradeoff renders the sweep.
func FormatTradeoff(points []TradeoffPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %12s %12s %12s %10s %10s %12s\n",
		"Tb", "mean latency", "p99 latency", "max latency", "±95% CI", "bound", "ELS util")
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	for _, p := range points {
		fmt.Fprintf(&sb, "%-8v %12v %12v %12v %10v %10v %11.2f%%\n",
			p.Tb, us(p.MeanLatency), us(p.P99Latency), us(p.MaxLatency), us(p.CI95), p.Bound, 100*p.ELSUtilization)
	}
	return sb.String()
}
