package experiments

import (
	"fmt"
	"math"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/can"
	"canely/internal/gossip"
	"canely/internal/sim"
)

// The gossip-vs-CANELy comparison asks the paper's scaling question: what
// does the wired-AND buy, and what does it cost? CANELy's failure
// detection rides the life-sign channel of a broadcast bus — detection
// latency is the crisp bound Tb + 2·Ttd and false positives are zero by
// construction, but every node hears every life-sign, so the bus budget
// forces Tb (and with it the latency) to grow linearly with the cluster.
// SWIM-style gossip over lossy point-to-point datagrams keeps per-node
// bandwidth and expected detection latency almost flat in N, but pays with
// probabilistic latency and a false-suspicion rate that never reaches
// zero on a lossy medium.
//
// Real cores cannot answer the question directly: can.MaxNodes caps a
// simulated network at 64 identities, and a 10,000-node frame-level
// simulation is out of reach regardless. The campaign therefore sweeps a
// seeded Monte-Carlo *round model* of the SWIM protocol (probe rounds,
// epidemic dissemination, loss-induced false suspicions — the same
// mechanics internal/gossip implements, abstracted to aggregate counts
// per protocol period) against the analytic CANELy model the paper's
// bandwidth analysis (Figure 10) uses, with the crash phase and all
// stochastic counts drawn per seed so every point carries a 95%
// confidence interval.

// GossipModel parameterizes the comparison at one cluster size.
type GossipModel struct {
	// Nodes is the cluster size (not bounded by can.MaxNodes: the model
	// works on aggregate counts, not identities).
	Nodes int
	// Gossip carries the SWIM tuning: Period, AckTimeout, SuspectTimeout
	// and Fanout are read; Retransmit doubles as the ping-req proxy count.
	Gossip gossip.Config
	// Loss is the per-message loss probability of the datagram medium.
	Loss float64
}

// gossipFrameBits is the on-wire cost of one gossip datagram: an extended
// frame with the full 8-byte payload (kind/seq byte, subject byte, three
// piggybacked updates), worst-case stuffing plus interframe space.
var gossipFrameBits = float64(can.WorstSlotBits(can.FormatExtended, 8))

// elsFrameBits is the on-wire cost of one CANELy life-sign slot.
var elsFrameBits = float64(can.WorstSlotBits(can.FormatExtended, 8))

// poisson draws a Poisson variate: Knuth's product method for small
// rates, a normal approximation beyond (where the distributions agree to
// well under the CI widths this campaign reports).
func poisson(r *sim.RNG, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		u1 := r.Float64()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*r.Float64())
		if k := int(math.Round(lambda + z*math.Sqrt(lambda))); k > 0 {
			return k
		}
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// detectMs simulates one crash detection: rounds until some survivor's
// uniform probe selects the victim (each round the number of such probes
// is Binomial(N-1, 1/(N-1)) ≈ Poisson(1)), then the ack timeout and the
// suspicion window, then epidemic dissemination of the confirmed failure
// until every survivor knows. The phases are summed sequentially — the
// conservative reading; in the implementation dissemination overlaps the
// suspicion window, so the model upper-bounds the protocol it abstracts.
func (m GossipModel) detectMs(r *sim.RNG) float64 {
	period := m.Gossip.Period
	n := m.Nodes
	round, detectors := 0, 0
	for detectors == 0 {
		round++
		detectors = poisson(r, 1)
		if round > 100000 {
			break
		}
	}
	// Epidemic spread: informed nodes each push the update to Fanout
	// uniform targets per period; a push is lost with probability Loss.
	informed, spread := detectors, 0
	for informed < n-1 {
		spread++
		contact := 1 - math.Pow(1-1/float64(n-1), float64(informed*m.Gossip.Fanout)*(1-m.Loss))
		grow := poisson(r, float64(n-1-informed)*contact)
		informed += grow
		if spread > 100000 {
			break
		}
	}
	d := time.Duration(round)*period + m.Gossip.AckTimeout +
		m.Gossip.SuspectTimeout + time.Duration(spread)*period
	return float64(d) / float64(time.Millisecond)
}

// falseSuspicion returns the probability that one probe of a live peer
// escalates to a suspicion: the direct ping/ack round trip fails (either
// leg lost) and every ping-req relay (four legs each) fails too.
func (m GossipModel) falseSuspicion() float64 {
	direct := 1 - math.Pow(1-m.Loss, 2)
	relay := 1 - math.Pow(1-m.Loss, 4)
	return direct * math.Pow(relay, float64(m.Gossip.Retransmit))
}

// gossipTrial runs one seeded trial of the SWIM model and returns the
// three comparison metrics.
func (m GossipModel) gossipTrial(r *sim.RNG) (detectMs, fpPerNodeHour, bwBitsPerSec float64) {
	detectMs = m.detectMs(r)

	probesPerNodeHour := float64(time.Hour) / float64(m.Gossip.Period)
	suspicions := poisson(r, float64(m.Nodes)*probesPerNodeHour*m.falseSuspicion())
	fpPerNodeHour = float64(suspicions) / float64(m.Nodes)

	// Steady-state traffic per node per period: one ping out, its ack in,
	// and the mirror image as a probe target (2 sent + 2 received), plus
	// ping-req fan-out (2·Retransmit messages at each of requester, relay
	// and subject — amortized 4·Retransmit per failed direct probe) for
	// the sampled share of direct probes the lossy medium eats.
	perPeriod := 4.0
	failed := poisson(r, probesPerNodeHour*(1-math.Pow(1-m.Loss, 2)))
	perPeriod += float64(failed) / probesPerNodeHour * 4 * float64(m.Gossip.Retransmit)
	bwBitsPerSec = perPeriod * gossipFrameBits / m.Gossip.Period.Seconds()
	return detectMs, fpPerNodeHour, bwBitsPerSec
}

// canelyTrial evaluates the CANELy side at the same cluster size. The
// life-sign period cannot stay at the configured Tb forever: N nodes each
// transmit one ELS slot per Tb on a shared bus, and the membership channel
// is budgeted at most half the raw bit rate (the paper's Figure 10
// headroom), so Tb stretches to 2·N·slot/rate once N outgrows the
// default. Detection is the residual of the victim's cycle (crash phase
// uniform in [0, Tb)) plus two transmission-delay bounds; false positives
// are zero — the wired-AND makes frame reception a bus-wide consensus, so
// a live node's life-sign is never missed by a subset.
func canelyTrial(r *sim.RNG, cfg canely.Config, nodes int) (detectMs, fpPerNodeHour, bwBitsPerSec float64) {
	tb := cfg.Tb
	if minTb := cfg.Rate.DurationOf(2 * nodes * int(elsFrameBits)); tb < minTb {
		tb = minTb
	}
	phase := r.Duration(tb)
	detectMs = float64(tb-phase+2*cfg.Ttd) / float64(time.Millisecond)
	// Every node hears every life-sign: per-node bandwidth is the whole
	// channel, N slots per Tb.
	bwBitsPerSec = float64(nodes) * elsFrameBits / tb.Seconds()
	return detectMs, 0, bwBitsPerSec
}

// GossipComparisonSpec builds the comparison campaign: at every cluster
// size and seed, one SWIM model trial and one CANELy model trial, reduced
// to paired metrics.
func GossipComparisonSpec(base canely.Config, model GossipModel, sizes []int, seeds campaign.SeedRange) *campaign.Spec {
	return &campaign.Spec{
		Name:  "gossip-comparison",
		Base:  base,
		Axes:  []campaign.Axis{campaign.IntAxis("nodes", sizes...)},
		Seeds: seeds,
		Run: func(p campaign.Params) (map[string]float64, error) {
			m := model
			m.Nodes = p.Values[0].(int)
			if m.Nodes < 2 {
				return nil, fmt.Errorf("cluster of %d nodes has nothing to detect", m.Nodes)
			}
			rng := sim.NewRNG(p.Seed).Split(fmt.Sprintf("gossip-cmp/n%d", m.Nodes))
			gd, gfp, gbw := m.gossipTrial(rng)
			cd, cfp, cbw := canelyTrial(rng, p.Config, m.Nodes)
			return map[string]float64{
				"gossip_detect_ms":  gd,
				"gossip_fp_node_hr": gfp,
				"gossip_bw_bps":     gbw,
				"canely_detect_ms":  cd,
				"canely_fp_node_hr": cfp,
				"canely_bw_bps":     cbw,
			}, nil
		},
	}
}

// DefaultGossipModel is the SWIM tuning the comparison sweeps: the
// internal/gossip defaults over a 1% lossy datagram medium.
func DefaultGossipModel() GossipModel {
	return GossipModel{
		Gossip: gossip.Config{
			Period:         20 * time.Millisecond,
			AckTimeout:     5 * time.Millisecond,
			SuspectTimeout: 120 * time.Millisecond,
			Fanout:         2,
			Retransmit:     3,
		},
		Loss: 0.01,
	}
}
