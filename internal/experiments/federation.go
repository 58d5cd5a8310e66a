package experiments

import (
	"fmt"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/can"
)

// FederationQoS is the measurement of one federation trial: how long a
// cold-booted site took to converge through digest exchange, and how long
// the survivors took to expel a crashed segment.
type FederationQoS struct {
	// Converged reports whether every gateway assembled the full site.
	Converged bool
	// ConvergeTime is the instant (from bootstrap) the last gateway
	// converged.
	ConvergeTime time.Duration
	// Detected reports whether every surviving gateway removed the victim.
	Detected bool
	// DetectionTime is the worst-case removal latency across survivors,
	// measured from the crash instant.
	DetectionTime time.Duration
	// Mistakes counts segment removals observed before the crash — a
	// correct federation makes none.
	Mistakes int
}

// FederationTrial runs one seeded federation trial: segments × nodesPer
// cold-boot (every gateway knowing only its own segment), converge to the
// full site through digest exchange, then the victim segment crashes
// whole and the survivors detect it by digest staleness. phase offsets the
// crash instant against the announcement cycle so trials sample different
// alignments.
func FederationTrial(cfg canely.Config, segments, nodesPer, victim int, phase time.Duration) FederationQoS {
	fcfg := canely.FederationConfig{
		Node:            cfg,
		Segments:        segments,
		NodesPerSegment: nodesPer,
		Tann:            10 * time.Millisecond,
		Tstale:          40 * time.Millisecond,
	}
	fed := canely.NewFederation(fcfg)
	site := fed.Site()
	gws := fed.Gateways()

	const unseen = time.Duration(-1)
	var q FederationQoS
	convergedAt := make([]time.Duration, len(gws))
	removedAt := make([]time.Duration, len(gws))
	crashAt := unseen
	for i, g := range gws {
		i := i
		convergedAt[i], removedAt[i] = unseen, unseen
		g.OnSiteChange(func(active, failed canely.NodeSet) {
			if convergedAt[i] == unseen && active == site {
				convergedAt[i] = fed.Now()
			}
			if failed != 0 && crashAt == unseen {
				q.Mistakes++
			}
			if removedAt[i] == unseen && failed.Contains(can.NodeID(victim)) {
				removedAt[i] = fed.Now()
			}
		})
	}

	fed.BootstrapCold()
	// Digest fan-in is one frame per segment per Tann; 20 cycles bounds
	// convergence even at 32 segments with generous slack.
	fed.Run(20*fcfg.Tann + phase)
	q.Converged = true
	for i := range gws {
		if convergedAt[i] == unseen {
			q.Converged = false
		} else if convergedAt[i] > q.ConvergeTime {
			q.ConvergeTime = convergedAt[i]
		}
	}
	if !q.Converged {
		return q
	}

	crashAt = fed.Now()
	fed.CrashSegment(victim)
	fed.Run(fcfg.Tstale + 6*fcfg.Tann)
	q.Detected = true
	for i, g := range gws {
		if !g.Alive() {
			continue // the victim's own gateway does not witness
		}
		if removedAt[i] == unseen {
			q.Detected = false
		} else if d := removedAt[i] - crashAt; d > q.DetectionTime {
			q.DetectionTime = d
		}
	}
	return q
}

// FederationSpec builds the federation scaling campaign: at every segment
// count and seed, a federation cold-boots, converges, loses one segment and
// detects the loss. Metrics: converge_ms, detect_ms, mistakes. A federation
// that fails to converge or detect is a failed trial.
func FederationSpec(base canely.Config, segCounts []int, nodesPer int, seeds campaign.SeedRange) *campaign.Spec {
	return &campaign.Spec{
		Name:  "federation-convergence",
		Base:  base,
		Axes:  []campaign.Axis{campaign.IntAxis("segments", segCounts...)},
		Seeds: seeds,
		Run: func(p campaign.Params) (map[string]float64, error) {
			segments := p.Values[0].(int)
			victim := p.Trial % segments
			phase := time.Duration(p.Trial%13) * time.Millisecond
			q := FederationTrial(p.Config, segments, nodesPer, victim, phase)
			if !q.Converged {
				return nil, fmt.Errorf("%d-segment site never converged", segments)
			}
			if !q.Detected {
				return nil, fmt.Errorf("crash of segment %d never detected", victim)
			}
			return map[string]float64{
				"converge_ms": float64(q.ConvergeTime) / float64(time.Millisecond),
				"detect_ms":   float64(q.DetectionTime) / float64(time.Millisecond),
				"mistakes":    float64(q.Mistakes),
			}, nil
		},
	}
}
