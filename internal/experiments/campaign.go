package experiments

import (
	"context"
	"fmt"
	"time"

	"canely"
	"canely/internal/campaign"
)

// This file hosts the campaign extractors: the per-run measurement
// functions the internal/campaign engine fans out across workers. Every
// extractor builds its whole simulated world from its Params, so runs are
// independent and campaigns are deterministic regardless of parallelism.

// CrashTrial runs one seeded crash-detection trial on an n-node CANELy
// network: bootstrap, warm up for 50ms plus the given phase offset (so
// trials hit different points of the membership cycle), crash the victim
// and let the highest node observe. It returns the failure-detector QoS
// sample: detection latency, mistaken suspicions, and view-agreement
// violations among the surviving members.
func CrashTrial(cfg canely.Config, n int, victim canely.NodeID, phase time.Duration) campaign.QoS {
	if n < 2 {
		panic("experiments: CrashTrial needs at least two nodes")
	}
	net := canely.NewNetwork(cfg, n)
	net.BootstrapAll()
	net.Run(50*time.Millisecond + phase)

	observer := net.Node(canely.NodeID(n - 1))
	var q campaign.QoS
	crashed := canely.MakeSet()
	var detectedAt time.Duration
	observer.OnChange(func(ch canely.Change) {
		for _, id := range ch.Failed.IDs() {
			if !crashed.Contains(id) {
				q.Mistakes++
			}
		}
		if detectedAt == 0 && ch.Failed.Contains(victim) {
			detectedAt = net.Now()
		}
	})
	crashAt := net.Now()
	net.Node(victim).Crash()
	crashed = crashed.Add(victim)
	net.Run(cfg.DetectionLatencyBound() + cfg.Tm)

	if detectedAt > 0 {
		q.Detected = true
		q.DetectedAt = detectedAt
		q.DetectionTime = detectedAt - crashAt
	}
	ref := observer.View()
	for _, nd := range net.Nodes() {
		if nd.ID() != observer.ID() && nd.Alive() && nd.Member() && nd.View() != ref {
			q.AgreementViolations++
		}
	}
	return q
}

// CrashQoSSpec builds the canonical failure-detector QoS campaign: at every
// grid point and seed, one crash is injected into an n-node network and the
// QoS metrics (detection_ms, mistakes, agreement_violations, detected) are
// extracted. An undetected crash is a failed trial. cmd/campaign runs this
// spec; MeasureCANELyLatency builds on the same trial body.
func CrashQoSSpec(base canely.Config, n int, axes []campaign.Axis, seeds campaign.SeedRange) *campaign.Spec {
	return &campaign.Spec{
		Name:  "crash-detection-qos",
		Base:  base,
		Axes:  axes,
		Seeds: seeds,
		Run: func(p campaign.Params) (map[string]float64, error) {
			victim := canely.NodeID(p.Trial % (n - 1))
			phase := time.Duration(p.Trial%17) * 3 * time.Millisecond
			q := CrashTrial(p.Config, n, victim, phase)
			if !q.Detected {
				return nil, fmt.Errorf("crash of node %d never detected", victim)
			}
			return q.Metrics(), nil
		},
	}
}

// Study is one named sweep: a campaign.Spec constructor and nothing else.
// Its result is the campaign.Report that Runner.Run + Summarize produce.
// nodes is the network size per run; grid holds configuration axes swept
// on top of whatever workload axis the study brings itself.
type Study struct {
	Name, Doc string
	Spec      func(base canely.Config, nodes int, grid []campaign.Axis, seeds campaign.SeedRange) *campaign.Spec
}

// Studies is the table of sweep studies, default first: the one place a
// CLI resolves a study name, and the source of its help and error text.
var Studies = []Study{
	{"crash-qos", "failure-detector QoS of one crash; the grid defaults to tb=5ms,10ms,20ms,40ms",
		func(base canely.Config, nodes int, grid []campaign.Axis, seeds campaign.SeedRange) *campaign.Spec {
			if len(grid) == 0 {
				grid = []campaign.Axis{campaign.DurationAxis("tb",
					func(c *canely.Config, v time.Duration) { c.Tb = v },
					5*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 40*time.Millisecond)}
			}
			return CrashQoSSpec(base, nodes, grid, seeds)
		}},
	{"federation", "site convergence and segment-crash detection over segments=4,8,16,32 of -nodes nodes each",
		func(base canely.Config, nodes int, grid []campaign.Axis, seeds campaign.SeedRange) *campaign.Spec {
			spec := FederationSpec(base, []int{4, 8, 16, 32}, nodes, seeds)
			spec.Axes = append(spec.Axes, grid...)
			return spec
		}},
	{"gossip", "CANELy vs SWIM model over nodes=10,100,1000,10000; -nodes is unused",
		func(base canely.Config, _ int, grid []campaign.Axis, seeds campaign.SeedRange) *campaign.Spec {
			spec := GossipComparisonSpec(base, DefaultGossipModel(), []int{10, 100, 1000, 10000}, seeds)
			spec.Axes = append(spec.Axes, grid...)
			return spec
		}},
}

// mustRun executes a spec this package built on workers goroutines (0 =
// GOMAXPROCS). With an uncancelled context the only error Run returns is a
// malformed spec — a bug here, hence the panic.
func mustRun(spec *campaign.Spec, workers int) []campaign.RunResult {
	runner := campaign.Runner{Workers: workers}
	runs, err := runner.Run(context.Background(), spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s campaign: %v", spec.Name, err))
	}
	return runs
}

// report runs a spec and reduces it to its campaign.Report.
func report(spec *campaign.Spec) *campaign.Report {
	return campaign.Summarize(spec, mustRun(spec, 0))
}
