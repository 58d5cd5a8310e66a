package experiments

import (
	"fmt"
	"strings"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/can"
)

// ChurnPoint is one cell of the churn sweep: membership-suite utilization
// at a given number of simultaneous join requests, averaged over the seed
// sweep.
type ChurnPoint struct {
	C           int
	Utilization float64
	// CI95 is the half-width of the 95% confidence interval of the mean
	// utilization across the seeded trials.
	CI95 float64
}

// MeasureChurnSweep measures the membership-protocol bandwidth as the
// number of simultaneous join requests grows — the measured counterpart of
// the paper's footnote 11 ("each join/leave request contributes an
// increase of ≈0.16% to the overall utilization"). The churn counts form a
// campaign axis and every point is averaged over trials parallel seeded
// runs.
func MeasureChurnSweep(sub canely.Substrate, cs []int, tm time.Duration, trials int, seed int64) []ChurnPoint {
	if len(cs) == 0 {
		cs = []int{0, 1, 5, 10, 20}
	}
	if trials <= 0 {
		trials = 1
	}
	const members = 32
	base := canely.DefaultConfig()
	base.Substrate = sub
	base.Tm = tm
	base.Tb = tm
	base.TjoinWait = 3 * tm
	spec := &campaign.Spec{
		Name:  "churn-sweep",
		Base:  base,
		Axes:  []campaign.Axis{campaign.IntAxis("c", cs...)},
		Seeds: campaign.SeedRange{Base: seed, N: trials},
		Run: func(p campaign.Params) (map[string]float64, error) {
			c := p.Values[0].(int)
			if members+c > can.MaxNodes {
				return nil, fmt.Errorf("churn %d exceeds the node space", c)
			}
			cfg := p.Config
			net := canely.NewNetwork(cfg, members)
			for i := 0; i < c; i++ {
				net.AddNode(canely.NodeID(members + i))
			}
			var view canely.NodeSet
			for i := 0; i < members; i++ {
				view = view.Add(canely.NodeID(i))
			}
			for i := 0; i < members; i++ {
				net.Node(canely.NodeID(i)).Bootstrap(view)
			}
			net.Run(2 * tm)
			before := net.Stats()
			for i := 0; i < c; i++ {
				net.Node(canely.NodeID(members + i)).Join()
			}
			net.Run(2 * tm)
			window := net.Stats().Sub(before)
			bits := protocolBits(window)
			return map[string]float64{
				"util": float64(bits) / float64(cfg.Rate.Bits(2*tm)),
			}, nil
		},
	}
	rep := report(spec)
	out := make([]ChurnPoint, 0, len(cs))
	for i, p := range rep.Points {
		util := p.Metric("util")
		out = append(out, ChurnPoint{C: cs[i], Utilization: util.Mean, CI95: util.CI95})
	}
	return out
}

// PerRequestDelta estimates the marginal utilization of one join request
// from the sweep's endpoints.
func PerRequestDelta(points []ChurnPoint) float64 {
	if len(points) < 2 {
		return 0
	}
	first, last := points[0], points[len(points)-1]
	if last.C == first.C {
		return 0
	}
	return (last.Utilization - first.Utilization) / float64(last.C-first.C)
}

// FormatChurn renders the sweep.
func FormatChurn(points []ChurnPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %12s %12s\n", "c", "protocol util", "±95% CI")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-6d %11.2f%% %11.3f%%\n", p.C, 100*p.Utilization, 100*p.CI95)
	}
	fmt.Fprintf(&sb, "per-request delta: %.3f%%\n", 100*PerRequestDelta(points))
	return sb.String()
}
